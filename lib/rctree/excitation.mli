(** Bounds under arbitrary monotone excitation — the extension the
    paper's conclusion points to: "the results can be extended to upper
    and lower bounds for arbitrary excitation by use of the
    superposition integral".

    For a nondecreasing input [u] rising from 0 to 1, the zero-state
    response is the Stieltjes superposition

    {v y(t) = ∫ v(t - τ) du(τ) v}

    with [v] the unit step response.  Because [du >= 0], replacing [v]
    by its Penfield–Rubinstein bounds gives certified bounds on [y];
    monotonicity of [y] then inverts them into crossing-time bounds.

    Inputs here are nondecreasing piecewise-linear waveforms; a repeated
    time in the breakpoint list denotes a jump, so the ideal step is
    [(0, 0); (0, 1)].  Linear segments are integrated with composite
    Simpson quadrature over each segment (the integrand is smooth within
    a segment except at the breakpoints of the bounds themselves, which
    the default 32 points per segment resolve far below bound width). *)

type t
(** A nondecreasing piecewise-linear input from 0 to 1. *)

val make : (float * float) list -> t
(** [make breakpoints] — [(time, value)] pairs with nondecreasing times
    and values; value is right-continuous at a repeated time (a jump).
    Before the first breakpoint the input is 0, after the last it holds
    its final value.  Raises [Invalid_argument] when the list is empty,
    times decrease, values decrease, values leave [0, 1], or the first
    value is not 0. *)

val unit_step : t
(** The paper's excitation: a jump from 0 to 1 at [t = 0]. *)

val ramp : rise_time:float -> t
(** Linear rise from 0 at [t = 0] to 1 at [rise_time].
    Raises [Invalid_argument] unless [rise_time > 0]. *)

val delayed_step : float -> t
(** A unit step at the given (non-negative) time. *)

val staircase : steps:int -> rise_time:float -> t
(** [steps] equal jumps evenly spaced over [\[0, rise_time\]] — a crude
    model of a multi-stage driver fight.  Raises [Invalid_argument]
    unless both are positive. *)

val value : t -> float -> float
(** The input waveform itself. *)

val sample : t -> float array -> float array
(** [sample u times] is [value u] at each of the nondecreasing [times],
    in one pass and without allocating per sample.  Raises
    [Invalid_argument] when the times decrease. *)

val final_value : t -> float

val response_bounds : ?points_per_segment:int -> Times.t -> t -> float -> float * float
(** [(y_min, y_max)] at a given time, [t >= 0].  For {!unit_step} this
    reduces exactly to [Bounds.v_min] / [Bounds.v_max]. *)

val crossing_bounds : ?points_per_segment:int -> Times.t -> t -> threshold:float -> float * float
(** [(t_min, t_max)] for the response to reach the threshold.
    Raises [Invalid_argument] unless [0 <= threshold < 1] and the input
    settles at 1 (otherwise the threshold may never be reached). *)
