type window = { early : float; late : float }

let m_runs = Obs.Counter.make "sta.runs"
let m_instances = Obs.Counter.make "sta.instances_visited"
let m_nets = Obs.Counter.make "sta.nets_propagated"
let m_endpoints = Obs.Counter.make "sta.endpoints"

type mode = Elmore_mode | Bounds_mode

type step =
  | Through_net of { net : string; launch : window; arrival : window }
  | Through_cell of { instance : string; cell : string; input : string; output : window }

(* per-net interconnect delays, computed once up front: [pins] maps
   every load pin to its window in the chosen mode; [noload] is the
   far-end window of a loadless net (meaningful only there) *)
type net_delay = { pins : (Design.pin * window) list; noload : window }

type t = {
  design : Design.t;
  analysis_mode : mode;
  thresh : float;
  net_delays : (string, net_delay) Hashtbl.t; (* net -> precomputed windows *)
  launches : (string, window) Hashtbl.t; (* net -> window at driver output *)
  pin_arrivals : (string * string, window) Hashtbl.t; (* load pin -> window *)
  out_arrivals : (string, window) Hashtbl.t; (* instance -> output window *)
  crit_input : (string, string) Hashtbl.t; (* instance -> input pin setting the late edge *)
  pin_net : (string * string, string) Hashtbl.t; (* load pin -> net feeding it *)
  end_arrivals : (string, window) Hashtbl.t; (* primary-output net -> arrival *)
  end_crit_sink : (string, Design.pin option) Hashtbl.t;
}

let add_window a b = { early = a.early +. b.early; late = a.late +. b.late }

(* pure in the design: safe to evaluate for many nets concurrently *)
let precompute_net mode thresh d (net : Design.net) =
  match net.Design.loads with
  | _ :: _ ->
      let delays = Netdelay.sink_delays ~threshold:thresh d net in
      let pins =
        List.map
          (fun (s : Netdelay.sink_delay) ->
            match mode with
            | Bounds_mode ->
                let lo, hi = s.window in
                (s.sink, { early = lo; late = hi })
            | Elmore_mode -> (s.sink, { early = s.elmore; late = s.elmore }))
          delays
      in
      { pins; noload = { early = 0.; late = 0. } }
  | [] ->
      let noload =
        match mode with
        | Bounds_mode ->
            let lo, hi = Netdelay.worst_window ~threshold:thresh d net in
            { early = lo; late = hi }
        | Elmore_mode ->
            let tree = Netdelay.tree_of_net d net in
            let output = snd (List.hd (Rctree.Tree.outputs tree)) in
            let e = Rctree.Moments.elmore tree ~output in
            { early = e; late = e }
      in
      { pins = []; noload }

let run ?(mode = Bounds_mode) ?(threshold = 0.5) ?(input_arrivals = []) d =
  List.iter
    (fun (name, at) ->
      (match Design.net d name with
      | { Design.driver = Design.Primary _; _ } -> ()
      | { Design.driver = Design.Cell_output _; _ } ->
          invalid_arg
            (Printf.sprintf "Analysis.run: %S is not a primary-input net" name)
      | exception Not_found ->
          invalid_arg (Printf.sprintf "Analysis.run: unknown net %S" name));
      if at < 0. then invalid_arg "Analysis.run: negative input arrival")
    input_arrivals;
  Obs.Counter.incr m_runs;
  match
    Obs.Span.with_ ~name:"sta.order" (fun () -> Graph.topological_order (Graph.of_design d))
  with
  | Error cycle -> Error cycle
  | Ok order ->
      (* one RC-tree analysis per net, before the order-dependent
         propagation below *)
      let net_delays = Hashtbl.create 16 in
      Obs.Span.with_ ~name:"sta.netdelay" (fun () ->
          List.iter
            (fun (net : Design.net) ->
              Hashtbl.replace net_delays net.Design.net_name (precompute_net mode threshold d net))
            (Design.nets d));
      let r =
        {
          design = d;
          analysis_mode = mode;
          thresh = threshold;
          net_delays;
          launches = Hashtbl.create 16;
          pin_arrivals = Hashtbl.create 16;
          out_arrivals = Hashtbl.create 16;
          crit_input = Hashtbl.create 16;
          pin_net = Hashtbl.create 16;
          end_arrivals = Hashtbl.create 16;
          end_crit_sink = Hashtbl.create 16;
        }
      in
      let zero = { early = 0.; late = 0. } in
      (* launch of primary-input nets, and load-pin bookkeeping *)
      List.iter
        (fun (net : Design.net) ->
          (match net.Design.driver with
          | Design.Primary _ ->
              let at =
                Option.value (List.assoc_opt net.Design.net_name input_arrivals) ~default:0.
              in
              Hashtbl.replace r.launches net.Design.net_name { early = at; late = at }
          | Design.Cell_output _ -> ());
          List.iter
            (fun { Design.instance; pin } ->
              Hashtbl.replace r.pin_net (instance, pin) net.Design.net_name)
            net.Design.loads)
        (Design.nets d);
      (* propagate one net once its launch is known *)
      let propagate_net (net : Design.net) =
        match Hashtbl.find_opt r.launches net.Design.net_name with
        | None -> ()
        | Some launch ->
            Obs.Counter.incr m_nets;
            List.iter
              (fun ((pin : Design.pin), w) ->
                Hashtbl.replace r.pin_arrivals (pin.Design.instance, pin.Design.pin)
                  (add_window launch w))
              (Hashtbl.find r.net_delays net.Design.net_name).pins
      in
      List.iter propagate_net (Design.nets d);
      (* instances in topological order *)
      Obs.Span.with_ ~name:"sta.propagate" (fun () ->
      List.iter
        (fun name ->
          Obs.Counter.incr m_instances;
          let cell = Design.cell_of d name in
          let input_windows =
            List.map
              (fun (pin, _) ->
                (pin, Option.value (Hashtbl.find_opt r.pin_arrivals (name, pin)) ~default:zero))
              cell.Celllib.inputs
          in
          let worst_pin, worst =
            List.fold_left
              (fun ((_, acc) as best) ((_, w) as cand) -> if w.late > acc.late then cand else best)
              (List.hd input_windows) (List.tl input_windows)
          in
          let earliest =
            List.fold_left (fun acc (_, w) -> Float.min acc w.early) worst.early input_windows
          in
          let load =
            match Design.net_driven_by d name with
            | Some net -> Netdelay.load_capacitance d net
            | None -> 0.
          in
          let cell_delay =
            cell.Celllib.intrinsic_delay +. (cell.Celllib.delay_per_farad *. load)
          in
          let out = { early = earliest +. cell_delay; late = worst.late +. cell_delay } in
          Hashtbl.replace r.out_arrivals name out;
          Hashtbl.replace r.crit_input name worst_pin;
          (match Design.net_driven_by d name with
          | Some net ->
              Hashtbl.replace r.launches net.Design.net_name out;
              propagate_net net
          | None -> ()))
        order);
      (* endpoints *)
      Obs.Span.with_ ~name:"sta.endpoints" (fun () ->
      List.iter
        (fun po ->
          Obs.Counter.incr m_endpoints;
          let net = Design.net d po in
          let launch = Option.value (Hashtbl.find_opt r.launches po) ~default:zero in
          let delays = Hashtbl.find r.net_delays net.Design.net_name in
          let arrival, crit_sink =
            match delays.pins with
            | [] -> (add_window launch delays.noload, None)
            | pins ->
                let worst =
                  List.fold_left
                    (fun acc (pin, w) ->
                      let w = add_window launch w in
                      match acc with
                      | Some (_, best) when best.late >= w.late -> acc
                      | Some _ | None -> Some (pin, w))
                    None pins
                in
                (match worst with
                | Some (pin, w) -> (w, Some pin)
                | None -> (launch, None))
          in
          Hashtbl.replace r.end_arrivals po arrival;
          Hashtbl.replace r.end_crit_sink po crit_sink)
        (Design.primary_outputs d));
      Ok r

let run_exn ?mode ?threshold ?input_arrivals d =
  match run ?mode ?threshold ?input_arrivals d with
  | Ok r -> r
  | Error cycle ->
      invalid_arg ("Analysis.run_exn: combinational cycle through " ^ String.concat ", " cycle)

let mode r = r.analysis_mode
let threshold r = r.thresh
let net_launch r name = Hashtbl.find r.launches name
let pin_arrival r { Design.instance; pin } = Hashtbl.find r.pin_arrivals (instance, pin)
let output_arrival r name = Hashtbl.find r.out_arrivals name
let endpoint_arrival r name = Hashtbl.find r.end_arrivals name

let endpoints r =
  List.map (fun po -> (po, endpoint_arrival r po)) (Design.primary_outputs r.design)

let worst_endpoint r =
  List.fold_left
    (fun acc (po, w) ->
      match acc with Some (_, best) when best.late >= w.late -> acc | Some _ | None -> Some (po, w))
    None (endpoints r)

let critical_path r endpoint =
  let rec back_from_net net_name sink steps =
    let net = Design.net r.design net_name in
    let launch = Option.value (Hashtbl.find_opt r.launches net_name) ~default:{ early = 0.; late = 0. } in
    let arrival =
      match sink with
      | Some pin -> pin_arrival r pin
      | None -> Option.value (Hashtbl.find_opt r.end_arrivals net_name) ~default:launch
    in
    let steps = Through_net { net = net_name; launch; arrival } :: steps in
    match net.Design.driver with
    | Design.Primary _ -> steps
    | Design.Cell_output { instance; _ } ->
        let cell = Design.cell_of r.design instance in
        let input = Hashtbl.find r.crit_input instance in
        let steps =
          Through_cell
            {
              instance;
              cell = cell.Celllib.cell_name;
              input;
              output = output_arrival r instance;
            }
          :: steps
        in
        (match Hashtbl.find_opt r.pin_net (instance, input) with
        | Some feeding -> back_from_net feeding (Some { Design.instance; pin = input }) steps
        | None -> steps)
  in
  let crit_sink = Hashtbl.find r.end_crit_sink endpoint in
  back_from_net endpoint crit_sink []

let hold_slack r ~hold =
  if hold < 0. then invalid_arg "Analysis.hold_slack: negative hold requirement";
  List.map (fun (po, w) -> (po, w.early -. hold)) (endpoints r)

let required_period r =
  List.fold_left (fun acc (_, w) -> Float.max acc w.late) 0. (endpoints r)

let slack r ~period = List.map (fun (po, w) -> (po, period -. w.late)) (endpoints r)
