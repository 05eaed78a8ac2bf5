(** General RC trees with named nodes and any number of outputs.

    A tree is built through {!Builder} and then frozen; every query
    below runs on the frozen form.  Structure:

    - node [0] is the input (driven by the step source);
    - every other node hangs off its parent through a series element
      (a {!Element.Resistor} or a distributed {!Element.Line});
    - every node may carry lumped capacitance to ground;
    - any subset of nodes may be marked as outputs.

    Distributed lines keep their identity (they are NOT pre-lumped);
    {!Moments} integrates over them exactly and {!Lump} discretizes
    them when a simulation needs a finite state space.

    {b Storage.}  The frozen tree is a struct of arrays indexed by node
    id: the parent ([-1] for the input), the series resistance and the
    distributed capacitance of the edge above each node ([0] for the
    input; a lumped resistor has no line capacitance), and the lumped
    capacitance at each node; children are kept CSR-style, ascending
    by id.  Ids are assigned parent-first, so index order is a valid
    top-down order and reverse index order a bottom-up one: the
    paper's O(n) sweeps are plain loops over these arrays.

    {b Borrowed arrays.}  {!parents}, {!resistances},
    {!line_capacitances} and {!capacitances} hand out the tree's own
    arrays, without a copy — borrowed, do not mutate.  Hot engines
    read them instead of calling {!parent} or {!capacitance} per node,
    because a per-node call across a module boundary boxes its float
    result unless the compiler inlines it. *)

type node_id = int

type t

module Builder : sig
  type tree := t
  type t

  val create : ?name:string -> unit -> t
  (** A builder holding just the input node. *)

  val input : t -> node_id
  (** The input node (always [0]). *)

  val add_node : t -> parent:node_id -> ?name:string -> Element.t -> node_id
  (** [add_node b ~parent elem] creates a node connected to [parent]
      through [elem].  A [Capacitor] element is rejected — capacitance
      belongs to nodes, use {!add_capacitance}.  Since {!Element.t} is
      a public variant, the values are checked here too.  Raises
      [Invalid_argument] on a bad parent, a capacitor element, a
      negative or non-finite value, or a [Line] of zero resistance
      (use {!add_line}, which folds it into [parent]).  A [Line] of
      zero capacitance is stored as a resistor. *)

  val add_resistor : t -> parent:node_id -> ?name:string -> float -> node_id

  val add_line : t -> parent:node_id -> ?name:string -> float -> float -> node_id
  (** [add_line b ~parent r c] adds a distributed line edge — argument
      order follows the paper's [URC R C].  If the line degenerates to a pure
      capacitor (zero resistance) the capacitance is folded into
      [parent] and [parent] itself is returned. *)

  val add_capacitance : t -> node_id -> float -> unit
  (** Accumulates lumped capacitance at a node.
      Raises [Invalid_argument] when negative. *)

  val mark_output : t -> ?label:string -> node_id -> unit
  (** Marks a node as an output.  The default label is the node name.
      Idempotent per (label, node) pair; a node may carry several
      labels (several logical sinks landing on one electrical node). *)

  val finish : t -> tree
  (** Freeze.  The builder stays usable; later additions do not affect
      already-frozen trees. *)
end

val name : t -> string

val node_count : t -> int

val input : t -> node_id

val parent : t -> node_id -> node_id
(** [-1] exactly for the input node. *)

val element : t -> node_id -> Element.t option
(** Series element between a node and its parent; [None] for the input.
    A view built from {!resistances} and {!line_capacitances}, for
    printers and pattern-matching callers. *)

val capacitance : t -> node_id -> float
(** Lumped capacitance at the node (line capacitance not included). *)

val children : t -> node_id -> node_id list
(** Ascending by id, which is insertion order. *)

val parents : t -> int array
(** Parent of every node, [-1] for the input — borrowed, do not mutate. *)

val resistances : t -> float array
(** Series resistance of the edge above every node, [0] for the input —
    borrowed, do not mutate. *)

val line_capacitances : t -> float array
(** Distributed capacitance of the edge above every node, [0] for the
    input and for lumped resistors — borrowed, do not mutate. *)

val capacitances : t -> float array
(** Lumped capacitance at every node — borrowed, do not mutate. *)

val node_name : t -> node_id -> string

val find_node : t -> string -> node_id option

val outputs : t -> (string * node_id) list
(** In marking order. *)

val output_named : t -> string -> node_id
(** The node of the first output marked with this label, by a hash
    lookup.  Raises [Not_found]. *)

val is_output : t -> node_id -> bool
(** O(1); false for an out-of-range id. *)

val depth : t -> node_id -> int
(** Edges between the node and the input. *)

val total_capacitance : t -> float
(** Lumped plus distributed. *)

val total_resistance : t -> float
(** Sum of all series resistances in the tree. *)

val has_distributed_lines : t -> bool

val fold_nodes : t -> init:'a -> f:('a -> node_id -> 'a) -> 'a
(** Top-down (parents before children). *)

val iter_nodes : t -> f:(node_id -> unit) -> unit

val pp : Format.formatter -> t -> unit
(** Indented structural dump. *)
