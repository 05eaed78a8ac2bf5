(** Structured random-input generators.

    One home for every generator the test suite and the fuzz driver
    share: tree expressions in the paper's algebra, lumped
    simulation-safe trees, multi-output trees, distributed [URC]
    lines, incremental edit scripts, and SPICE deck noise.  The QCheck
    values ([arb_*]) serve the property tests; {!case} is the
    [Random.State] generator the {!Runner} draws from, sized by
    [max_nodes] and deterministic in the state alone. *)

val rng_values : float list
(** The shared element-value palette (decades from 0.1 to 100). *)

(** {2 QCheck generators (re-exported for the test suite)} *)

val gen_leaf : Rctree.Expr.t QCheck.Gen.t
val gen_expr : Rctree.Expr.t QCheck.Gen.t

val arb_expr : Rctree.Expr.t QCheck.arbitrary
(** Random tree expressions of 1-25 [URC] leaves, printed in the
    paper's notation. *)

val gen_sim_case : Case.t QCheck.Gen.t
(** Random lumped trees with positive resistances and a single marked
    output carrying capacitance — safe for {!Circuit.Exact} /
    {!Circuit.Transient}. *)

val arb_sim_case : Case.t QCheck.arbitrary
(** {!gen_sim_case} with a shrink-friendly printer (the replayable
    SPICE deck of the case, not a structural dump) and integrated
    shrinking via {!Shrink.candidates}. *)

val gen_tree : Rctree.Tree.t QCheck.Gen.t
(** Random trees with 1-12 nodes and several marked outputs, for
    batch-analysis properties. *)

val arb_tree : Rctree.Tree.t QCheck.arbitrary

val decorate_deck : Random.State.t -> string -> string
(** Sprinkle legal noise over deck text: tabs, comments, blank lines,
    case changes on card letters — node names stay untouched. *)

(** {2 Deck mutations} *)

(** One way to break a deck, for the front-end totality property: every
    mutant must end in a tree or a positioned error, never an exception. *)
type mutation =
  | Negative_value  (** an R, C or U value made negative *)
  | Nan_value
  | Overflow_value  (** [1e400], infinite once parsed *)
  | Cycle  (** a resistor between two existing nodes, or a self-loop *)
  | Dangling_node  (** a resistor or capacitor on nodes the input never reaches *)
  | Duplicate_name  (** a card repeated verbatim, name included *)
  | Missing_source
  | Extra_source
  | Wrong_arity  (** an R, C or U card with one word too few or too many *)
  | Orphan_continuation  (** a ['+'] line, possibly before any card *)
  | Self_include  (** [.include] of the deck's own file *)

val mutations : mutation list
(** Every constructor, once. *)

val mutation_name : mutation -> string

val mutate_deck : ?self:string -> Random.State.t -> mutation -> string -> string
(** [mutate_deck st m text] applies [m] to the deck text at positions
    drawn from [st]; lines it adds go before [.end].  [self] is the file
    name a {!Self_include} line names (default ["self.sp"]): pass the
    base name of the file the mutant is written to. *)

(** {2 Fuzz-driver generator} *)

val case : ?max_nodes:int -> ?with_edits:bool -> ?label:string -> Random.State.t -> Case.t
(** A random case: tree of [1 + n] nodes ([n < max_nodes], default
    10) where every edge is a resistor or, with probability 1/4, a
    distributed [URC] line; random lumped capacitances; one marked
    output guaranteed capacitive load; and (unless [with_edits] is
    false) an edit script of up to 4 entries for the incremental
    property.  Fully determined by the [Random.State]. *)
