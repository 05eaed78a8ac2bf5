let sink_label { Design.instance; pin } = instance ^ "/" ^ pin

let load_capacitance d { Design.instance; pin } =
  Celllib.input_capacitance (Design.cell_of d instance) pin

let driver_of d (net : Design.net) =
  match net.Design.driver with
  | Design.Primary drv -> drv
  | Design.Cell_output { instance; _ } -> (Design.cell_of d instance).Celllib.drive

let tree_of_net d (net : Design.net) =
  let drv = driver_of d net in
  let b = Rctree.Tree.Builder.create ~name:net.Design.net_name () in
  let root = Rctree.Tree.Builder.input b in
  let source =
    Rctree.Tree.Builder.add_resistor b ~parent:root ~name:"drv" drv.Tech.Mosfet.on_resistance
  in
  Rctree.Tree.Builder.add_capacitance b source drv.Tech.Mosfet.output_capacitance;
  let attach_sink at pin =
    Rctree.Tree.Builder.add_capacitance b at (load_capacitance d pin);
    Rctree.Tree.Builder.mark_output b ~label:(sink_label pin) at
  in
  (* the far end of whatever wire exists: a loadless net's output *)
  let far_end =
    match (net.Design.wire, net.Design.loads) with
    | Design.Direct, loads ->
        List.iter (attach_sink source) loads;
        source
    | Design.Lumped c, loads ->
        Rctree.Tree.Builder.add_capacitance b source c;
        List.iter (attach_sink source) loads;
        source
    | Design.Line { resistance; capacitance }, loads ->
        let far =
          Rctree.Tree.Builder.add_line b ~parent:source ~name:"wire" resistance capacitance
        in
        List.iter (attach_sink far) loads;
        far
    | Design.Star { resistance; capacitance }, loads ->
        List.iter
          (fun pin ->
            let far =
              Rctree.Tree.Builder.add_line b ~parent:source ~name:("wire." ^ sink_label pin)
                resistance capacitance
            in
            attach_sink far pin)
          loads;
        source
    | Design.Daisy { resistance; capacitance }, [] ->
        Rctree.Tree.Builder.add_line b ~parent:source ~name:"wire" resistance capacitance
    | Design.Daisy { resistance; capacitance }, loads ->
        let n = float_of_int (List.length loads) in
        let r_seg = resistance /. n and c_seg = capacitance /. n in
        List.fold_left
          (fun at pin ->
            let next =
              Rctree.Tree.Builder.add_line b ~parent:at ~name:("tap." ^ sink_label pin) r_seg c_seg
            in
            attach_sink next pin;
            next)
          source loads
  in
  if net.Design.loads = [] then
    Rctree.Tree.Builder.mark_output b ~label:(net.Design.net_name ^ ".end") far_end;
  Rctree.Tree.Builder.finish b

let load_capacitance d (net : Design.net) =
  let drv = driver_of d net in
  let tree = tree_of_net d net in
  Rctree.Tree.total_capacitance tree -. drv.Tech.Mosfet.output_capacitance

type sink_delay = { sink : Design.pin; elmore : float; window : float * float }

(* one all-nodes pass per net, then a hash lookup and an array read
   per sink: linear in the net, however many sinks it fans out to *)
let sink_delays ?(threshold = 0.5) d (net : Design.net) =
  let h = Rctree.Analysis.make (tree_of_net d net) in
  List.map
    (fun pin ->
      let ts = Rctree.Analysis.times h ~output:(`Name (sink_label pin)) in
      {
        sink = pin;
        elmore = ts.Rctree.Times.t_d;
        window = (Rctree.Bounds.t_min ts threshold, Rctree.Bounds.t_max ts threshold);
      })
    net.Design.loads

let all_sink_delays ?threshold d =
  Obs.Span.with_ ~name:"sta.netdelay_batch" @@ fun () ->
  List.map
    (fun (net : Design.net) -> (net.Design.net_name, sink_delays ?threshold d net))
    (Design.nets d)

let worst_window ?(threshold = 0.5) d net =
  let h = Rctree.Analysis.make (tree_of_net d net) in
  match Array.to_list (Rctree.Analysis.all_delay_bounds h ~threshold) with
  | [] -> (0., 0.)
  | (_, _, first) :: rest ->
      List.fold_left (fun (lo, hi) (_, _, (l, h)) -> (Float.min lo l, Float.max hi h)) first rest
