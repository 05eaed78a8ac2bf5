(** The matrix-free iteration matrix of a lumped RC tree, for
    time-stepping without dense matrices.

    The implicit-step matrix [(C/dt + G)] of an RC tree is SPD and
    tree-structured, so it admits a perfect elimination order:
    leaf-to-root LDLᵀ factorization has {e zero} fill-in
    ({!Numeric.Tree_ldl}).  {!factor} does that once per [(tree, dt)]
    in O(n); every time step is then two O(n) triangular sweeps.
    {!apply} multiplies by the matrix straight off the tree edges,
    which is what the conjugate-gradient solver needs.  Memory stays
    O(n), so million-node nets step without a dense matrix ever being
    formed.

    The stepping loop itself lives in {!Transient.simulate}; this
    module only builds the operator.  Accepts the same trees as
    {!Mna.of_tree} (lumped, positive edge resistances). *)

type operator
(** The matrix-free [(C/dt + G)] of one tree at one step size. *)

val operator : ?cap_floor:float -> Rctree.Tree.t -> dt:float -> operator

val apply : operator -> Numeric.Vector.t -> Numeric.Vector.t
(** One operator application — exposed for testing against the dense
    stamping. *)

val apply_into : operator -> Numeric.Vector.t -> into:Numeric.Vector.t -> unit
(** {!apply} into a caller-owned buffer (no allocation). *)

val node_count : operator -> int
(** Unknowns (tree nodes minus the input). *)

val row : operator -> Rctree.Tree.node_id -> int
(** Matrix row of a tree node; [-1] for the driven input.  Raises
    [Invalid_argument] on an unknown node. *)

val diagonal : operator -> Numeric.Vector.t
(** The matrix diagonal — the Jacobi preconditioner of the
    conjugate-gradient solver. *)

val c_over_dt : operator -> Numeric.Vector.t
(** The [C/dt] diagonal by row — borrowed, do not mutate.  With the
    operator built at [dt/2] this is the trapezoidal [2C/dt]. *)

val source_rows : operator -> (int * float) list
(** Rows whose parent is the driven input, with the coupling
    conductance [g]: the input waveform [u] injects [g·u] there. *)

val factor : operator -> Numeric.Tree_ldl.t
(** Leaf-first zero-fill-in LDLᵀ of [(C/dt + G)].  O(n); reusable
    across every step taken at this [(tree, dt)]. *)

val rc_chain : sections:int -> r:float -> c:float -> Rctree.Tree.t
(** A test/bench workload: a uniform chain of [sections] RC sections
    with the far end marked ["out"]. *)
