(** Arrival-time propagation.

    Signals launch at [t = 0] on primary-input nets; arrival windows
    propagate in topological order.  In [Bounds_mode] every net
    contributes its Penfield–Rubinstein window — the early edge
    accumulates [t_min], the late edge [t_max] — so an endpoint window
    [(early, late)] certifies: the output cannot settle before [early]
    and is guaranteed settled by [late].  [Elmore_mode] collapses each
    net to its Elmore delay, giving a single point estimate; comparing
    the two is the "bound-based vs Elmore-only" ablation of DESIGN.md. *)

type window = { early : float; late : float }

type mode = Elmore_mode | Bounds_mode

type t

val run :
  ?mode:mode ->
  ?threshold:float ->
  ?input_arrivals:(string * float) list ->
  Design.t ->
  (t, string list) result
(** Default mode is [Bounds_mode], threshold 0.5.  [input_arrivals]
    gives launch times for primary-input nets (default 0 for each);
    naming a non-primary or unknown net, or a negative time, raises
    [Invalid_argument].  [Error cycle] when the design has a
    combinational loop.

    Each net's interconnect analysis runs once, serially, before
    propagation. *)

val run_exn :
  ?mode:mode ->
  ?threshold:float ->
  ?input_arrivals:(string * float) list ->
  Design.t ->
  t

val mode : t -> mode

val threshold : t -> float

val net_launch : t -> string -> window
(** Arrival at the net's driver output (before interconnect).
    Raises [Not_found] for an unknown net. *)

val pin_arrival : t -> Design.pin -> window
(** Arrival at a load pin (driver launch + interconnect window).
    Raises [Not_found] when the pin is not loaded by any net. *)

val output_arrival : t -> string -> window
(** Arrival at an instance's output (worst input + intrinsic delay).
    Raises [Not_found]. *)

val endpoint_arrival : t -> string -> window
(** Arrival at a primary-output net: launch + the net's worst sink
    window.  Raises [Not_found]. *)

val endpoints : t -> (string * window) list
(** Every primary output with its arrival, declaration order. *)

val worst_endpoint : t -> (string * window) option
(** The primary output with the latest [late] edge. *)

type step =
  | Through_net of { net : string; launch : window; arrival : window }
      (** interconnect traversal: launch at the driver, arrival at the
          critical sink *)
  | Through_cell of { instance : string; cell : string; input : string; output : window }
      (** cell traversal: from the named input pin to the output *)

val critical_path : t -> string -> step list
(** The chain of nets and cells that sets the late edge of the given
    primary output, source first.  Raises [Not_found] on an unknown
    endpoint. *)

val hold_slack : t -> hold:float -> (string * float) list
(** Early-mode check: per-endpoint [early - hold].  A negative value
    means the output can change sooner than the downstream stage's hold
    requirement — the bounds' early edges certify the fastest possible
    arrival exactly as the late edges certify the slowest.
    Raises [Invalid_argument] for negative [hold]. *)

val required_period : t -> float
(** The smallest period at which every endpoint is certified: the worst
    late edge over all primary outputs (0 when there are none). *)

val slack : t -> period:float -> (string * float) list
(** Per-endpoint slack against a required time: [period - late].
    Negative slack = timing violation (or, with bounds, "cannot be
    certified at this period"). *)
