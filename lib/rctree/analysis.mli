(** Build-once / query-many handle over one RC tree.

    {!make} runs one O(n) pass over the whole tree that yields the
    characteristic times of {e every} node taken as the output: [T_P],
    and per node [R_kk], [T_Dk = Σ_j R_jk C_j] and [Σ_j R_jk² C_j].
    After that every query is an O(1) array read, and a batch over [m]
    outputs costs O(m) — a deck with any number of outputs is timed in
    time linear in its size, the paper's central claim.  The one-shot
    functions of {!Rctree} and {!Moments.times} read the same pass, so
    they agree with a handle bit for bit.

    A handle is immutable after [make], so any number of domains may
    query it concurrently without locks.

    Outputs are addressed uniformly: every query takes
    [~output:(`Id node | `Name label)], and every lookup failure
    raises [Invalid_argument] with a [Rctree.Analysis:] message —
    never [Not_found]. *)

type t

type output = [ `Id of Tree.node_id | `Name of string ]
(** [`Id] is any node of the tree; [`Name] is a marked-output label. *)

val make : Tree.t -> t
(** The all-nodes pass: two forward sweeps and one reverse sweep over
    the node arrays, O(n) time and a handful of float arrays of length
    n.  Adds n to the [rctree.analysis_nodes] counter; queries add
    nothing to it. *)

val tree : t -> Tree.t
val outputs : t -> (string * Tree.node_id) list
(** The tree's marked outputs, in marking order. *)

val resolve : t -> output -> Tree.node_id
(** The node an [output] designates, in O(1) ([`Name] is a hash
    lookup; a label marked twice names its first-marked node).  Raises
    [Invalid_argument] for an out-of-range [`Id] or an unknown
    [`Name]. *)

val times : t -> output:output -> Times.t
(** Characteristic times [T_P], [T_De], [T_Re] — eqs. (1), (5), (6). *)

val delay_bounds : t -> output:output -> threshold:float -> float * float
val voltage_bounds : t -> output:output -> time:float -> float * float
val certify : t -> output:output -> threshold:float -> deadline:float -> Bounds.verdict
val elmore : t -> output:output -> float

(** {2 Batch queries}

    Each reads every marked output, in marking order: O(1) per output
    on top of the pass {!make} already ran. *)

val all_times : t -> (string * Tree.node_id * Times.t) array
val all_delay_bounds : t -> threshold:float -> (string * Tree.node_id * (float * float)) array
val all_voltage_bounds : t -> time:float -> (string * Tree.node_id * (float * float)) array
val all_certify :
  t -> threshold:float -> deadline:float -> (string * Tree.node_id * Bounds.verdict) array

val times_of_nodes : t -> Tree.node_id array -> Times.t array
(** Batch {!times} over an arbitrary node set (not just marked
    outputs) — characteristic times of every sink of a large net in
    one call. *)
