type t = { points : (float * float) array }

let make breakpoints =
  let pts = Array.of_list breakpoints in
  let n = Array.length pts in
  if n = 0 then invalid_arg "Excitation.make: empty breakpoint list";
  if snd pts.(0) <> 0. then invalid_arg "Excitation.make: input must start at 0";
  for i = 0 to n - 2 do
    let t0, u0 = pts.(i) and t1, u1 = pts.(i + 1) in
    if t1 < t0 then invalid_arg "Excitation.make: times must be nondecreasing";
    if u1 < u0 then invalid_arg "Excitation.make: values must be nondecreasing"
  done;
  Array.iter
    (fun (t, u) ->
      if not (Float.is_finite t) || u < 0. || u > 1. then
        invalid_arg "Excitation.make: values must be finite and within [0, 1]")
    pts;
  { points = pts }

let unit_step = make [ (0., 0.); (0., 1.) ]

let ramp ~rise_time =
  if rise_time <= 0. then invalid_arg "Excitation.ramp: rise_time must be positive";
  make [ (0., 0.); (rise_time, 1.) ]

let delayed_step at =
  if at < 0. then invalid_arg "Excitation.delayed_step: negative time";
  if at = 0. then unit_step else make [ (0., 0.); (at, 0.); (at, 1.) ]

let staircase ~steps ~rise_time =
  if steps <= 0 || rise_time <= 0. then
    invalid_arg "Excitation.staircase: steps and rise_time must be positive";
  let h = 1. /. float_of_int steps in
  let pts = ref [ (0., 0.) ] in
  for k = 0 to steps - 1 do
    let t = rise_time *. float_of_int k /. float_of_int (Int.max 1 (steps - 1)) in
    let base = h *. float_of_int k in
    pts := (t, base +. h) :: (t, base) :: !pts
  done;
  make (List.rev !pts)

(* one walk over the breakpoints for the whole (nondecreasing) grid,
   in plain loops: no closure and no boxed float per sample.  [!i] is the
   rightmost breakpoint with time <= t (right-continuity at jumps). *)
let sample { points } times =
  let n = Array.length points in
  let out = Array.make (Array.length times) 0. in
  let i = ref 0 in
  for k = 0 to Array.length times - 1 do
    let t = times.(k) in
    if k > 0 && t < times.(k - 1) then invalid_arg "Excitation.sample: times must be nondecreasing";
    while !i + 1 < n && fst points.(!i + 1) <= t do
      incr i
    done;
    if t >= fst points.(0) then
      out.(k) <-
        (if !i = n - 1 then snd points.(!i)
         else begin
           let t0, u0 = points.(!i) and t1, u1 = points.(!i + 1) in
           u0 +. ((t -. t0) /. (t1 -. t0) *. (u1 -. u0))
         end)
  done;
  out

let value u t = (sample u [| t |]).(0)

let final_value { points } = snd points.(Array.length points - 1)

(* composite Simpson over [a, b] (b > a), even number of intervals *)
let simpson f a b n =
  let n = if n mod 2 = 1 then n + 1 else n in
  let h = (b -. a) /. float_of_int n in
  let acc = ref (f a +. f b) in
  for i = 1 to n - 1 do
    let w = if i mod 2 = 1 then 4. else 2. in
    acc := !acc +. (w *. f (a +. (float_of_int i *. h)))
  done;
  !acc *. h /. 3.

(* y(t) = sum over jumps  h_j * v(t - t_j)   for t_j <= t
        + sum over slopes s_i * ∫ v(t - τ) dτ over [a_i, min(b_i, t)] *)
let superpose ~points_per_segment bound_v { points } t =
  let n = Array.length points in
  let acc = ref 0. in
  for i = 0 to n - 2 do
    let t0, u0 = points.(i) and t1, u1 = points.(i + 1) in
    if u1 > u0 && t0 <= t then begin
      if t1 = t0 then (* jump *)
        acc := !acc +. ((u1 -. u0) *. bound_v (t -. t0))
      else begin
        let upper = Float.min t1 t in
        if upper > t0 then begin
          let slope = (u1 -. u0) /. (t1 -. t0) in
          let f tau = bound_v (t -. tau) in
          acc := !acc +. (slope *. simpson f t0 upper points_per_segment)
        end
      end
    end
  done;
  !acc

let response_bounds ?(points_per_segment = 32) ts input t =
  if t < 0. then invalid_arg "Excitation.response_bounds: negative time";
  if points_per_segment < 2 then
    invalid_arg "Excitation.response_bounds: need at least 2 quadrature points";
  let lo = superpose ~points_per_segment (Bounds.v_min ts) input t in
  let hi = superpose ~points_per_segment (Bounds.v_max ts) input t in
  (Numeric.Float_cmp.clamp ~lo:0. ~hi:1. lo, Numeric.Float_cmp.clamp ~lo:0. ~hi:1. hi)

let crossing_of bound_y threshold ~horizon =
  if bound_y 0. >= threshold then 0.
  else begin
    let f t = bound_y t -. threshold in
    let lo, hi = Numeric.Roots.expand_bracket f ~lo:0. ~hi:(Float.max horizon 1e-30) in
    Numeric.Roots.brent f ~lo ~hi ~tol:(1e-12 *. Float.max 1. hi)
  end

let crossing_bounds ?(points_per_segment = 32) ts input ~threshold =
  if not (threshold >= 0. && threshold < 1.) then
    invalid_arg "Excitation.crossing_bounds: threshold must satisfy 0 <= v < 1";
  if final_value input < 1. then
    invalid_arg "Excitation.crossing_bounds: input must settle at 1";
  let last_time = fst input.points.(Array.length input.points - 1) in
  let horizon = last_time +. Float.max ts.Times.t_p 1e-30 in
  let y_min t = fst (response_bounds ~points_per_segment ts input t) in
  let y_max t = snd (response_bounds ~points_per_segment ts input t) in
  (* the response certainly crosses after y_max does and before y_min does *)
  let t_lo = crossing_of y_max threshold ~horizon in
  let t_hi = crossing_of y_min threshold ~horizon in
  (t_lo, Float.max t_hi t_lo)
