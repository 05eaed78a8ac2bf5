(* All-nodes weighted path sums: f(i) = Σ_k R_ki w_k, computed as
   f(child) = f(parent) + R_edge * (Σ of w over the child's subtree). *)
let weighted_path_sums t weights =
  let n = Tree.node_count t in
  let parent = Tree.parents t and r = Tree.resistances t in
  let subtree = Array.copy weights in
  (* ids are topological, so reverse order folds children into parents *)
  for id = n - 1 downto 1 do
    let p = parent.(id) in
    subtree.(p) <- subtree.(p) +. subtree.(id)
  done;
  let f = Array.make n 0. in
  for id = 1 to n - 1 do
    f.(id) <- f.(parent.(id)) +. (r.(id) *. subtree.(id))
  done;
  f

let all_moments t ~order =
  if order < 0 then invalid_arg "Higher_moments.all_moments: negative order";
  if Tree.has_distributed_lines t then
    invalid_arg "Higher_moments.all_moments: discretize distributed lines first";
  let n = Tree.node_count t in
  let m = Array.make_matrix (order + 1) n 1. in
  for j = 1 to order do
    let cap = Tree.capacitances t in
    let weights = Array.init n (fun k -> cap.(k) *. m.(j - 1).(k)) in
    m.(j) <- weighted_path_sums t weights
  done;
  m

let output_moments t ~output ~order =
  if output < 0 || output >= Tree.node_count t then
    invalid_arg "Higher_moments.output_moments: unknown node";
  let m = all_moments t ~order in
  Array.init (order + 1) (fun j -> m.(j).(output))

type fit = Degenerate | Single_pole of float | Two_pole of { p1 : float; p2 : float }

let fit t ~output =
  match output_moments t ~output ~order:2 with
  | [| _; m1; m2 |] ->
      if m1 = 0. then Degenerate
      else begin
        let b1 = m1 in
        let b2 = (m1 *. m1) -. m2 in
        (* a relatively tiny b2 is a single pole up to rounding: the
           second root would sit at numerical infinity *)
        if b2 <= 1e-9 *. m1 *. m1 then Single_pole m1
        else begin
          let disc = (b1 *. b1) -. (4. *. b2) in
          if disc <= 0. then Single_pole m1
          else begin
            let sq = sqrt disc in
            let p1 = (-.b1 -. sq) /. (2. *. b2) in
            let p2 = (-.b1 +. sq) /. (2. *. b2) in
            if p1 < 0. && p2 < 0. && p1 <> p2 then Two_pole { p1; p2 } else Single_pole m1
          end
        end
      end
  | _ -> assert false

let step_response fit time =
  if time < 0. then invalid_arg "Higher_moments.step_response: negative time";
  match fit with
  | Degenerate -> 1.
  | Single_pole tau -> 1. -. exp (-.time /. tau)
  | Two_pole { p1; p2 } ->
      1. +. (((p2 *. exp (p1 *. time)) -. (p1 *. exp (p2 *. time))) /. (p1 -. p2))

let delay_estimate t ~output ~threshold =
  if not (threshold >= 0. && threshold < 1.) then
    invalid_arg "Higher_moments.delay_estimate: threshold must satisfy 0 <= v < 1";
  match fit t ~output with
  | Degenerate -> 0.
  | Single_pole tau -> tau *. log (1. /. (1. -. threshold))
  | Two_pole { p1; p2 } as f ->
      let g time = step_response f time -. threshold in
      if g 0. >= 0. then 0.
      else begin
        let horizon = 10. /. Float.min (Float.abs p1) (Float.abs p2) in
        let lo, hi = Numeric.Roots.expand_bracket g ~lo:0. ~hi:horizon in
        Numeric.Roots.brent g ~lo ~hi ~tol:(1e-12 *. Float.max 1. hi)
      end

let pp_fit fmt = function
  | Degenerate -> Format.pp_print_string fmt "degenerate"
  | Single_pole tau -> Format.fprintf fmt "single-pole(tau=%s)" (Units.format_si tau)
  | Two_pole { p1; p2 } ->
      Format.fprintf fmt "two-pole(tau1=%s, tau2=%s)"
        (Units.format_si (-1. /. p1))
        (Units.format_si (-1. /. p2))
