(* Contribution of one distributed line to the three sums.
   [a] is the path resistance at the line's input end. *)
let line_first_moment ~a ~r ~c = c *. (a +. (r /. 2.))
let line_second_moment ~a ~r ~c = c *. ((a *. a) +. (a *. r) +. (r *. r /. 3.))

let times t ~output =
  if output < 0 || output >= Tree.node_count t then invalid_arg "Moments.times: unknown node";
  Analysis.times (Analysis.make t) ~output:(`Id output)

(* T_P is output-independent; the input node's row carries it *)
let t_p t = (times t ~output:(Tree.input t)).Times.t_p

(* The textbook summation, kept apart from the all-nodes pass of
   Analysis so that it stays an independent oracle: R_ke of every
   capacitor by an explicit lowest-common-ancestor query. *)
let times_direct t ~output =
  if output < 0 || output >= Tree.node_count t then invalid_arg "Moments.times_direct: unknown node";
  let n = Tree.node_count t in
  let rkk = Array.init n (fun id -> Path.resistance_to_root t id) in
  let rke = Array.init n (fun id -> Path.shared_resistance t id output) in
  let on_path = Array.make n false in
  let rec up id =
    on_path.(id) <- true;
    if id <> 0 then up (Tree.parent t id)
  in
  up output;
  let first = ref 0. and second = ref 0. and tp = ref 0. in
  Tree.iter_nodes t ~f:(fun id ->
      let ck = Tree.capacitance t id in
      tp := !tp +. (ck *. rkk.(id));
      first := !first +. (ck *. rke.(id));
      second := !second +. (ck *. rke.(id) *. rke.(id));
      match Tree.element t id with
      | Some (Element.Line { resistance = r; capacitance = c }) ->
          let a = rkk.(Tree.parent t id) in
          tp := !tp +. line_first_moment ~a ~r ~c;
          if on_path.(id) then begin
            first := !first +. line_first_moment ~a ~r ~c;
            second := !second +. line_second_moment ~a ~r ~c
          end
          else begin
            first := !first +. (c *. rke.(id));
            second := !second +. (c *. rke.(id) *. rke.(id))
          end
      | Some (Element.Resistor _) | Some (Element.Capacitor _) | None -> ());
  let ree = rkk.(output) in
  let t_r = if ree = 0. then 0. else !second /. ree in
  Times.make ~t_p:!tp ~t_d:!first ~t_r

let all_output_times t = Array.to_list (Analysis.all_times (Analysis.make t))

let elmore t ~output = (times t ~output).Times.t_d

let quadratic_sum t ~output =
  let ts = times t ~output in
  ts.Times.t_r *. Path.resistance_to_root t output

let all_times t =
  let h = Analysis.make t in
  Analysis.times_of_nodes h (Array.init (Tree.node_count t) Fun.id)
