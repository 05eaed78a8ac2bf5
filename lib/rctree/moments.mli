(** Characteristic times of tree outputs (eqs. 1, 5, 6).

    One engine computes them: the O(n) all-nodes pass of
    {!Analysis.make}.  {!times}, {!t_p}, {!elmore}, {!all_times} and
    {!all_output_times} are one-shot reads of that pass; build an
    {!Analysis.t} yourself to query one tree many times.

    {!times_direct} is kept apart on purpose: the textbook method that
    evaluates [R_ke] for every capacitor with an explicit
    lowest-common-ancestor query and sums the moments in its own loop.
    It is the independent oracle of the tests and the baseline of the
    E8 ablation benchmark.

    Distributed lines are integrated in closed form: a line of total
    resistance [R] and capacitance [C] entered at path resistance [a]
    contributes [C(a + R/2)] to the first-order sums and
    [C(a² + aR + R²/3)] to the quadratic sum when it lies on the path
    to the output, and [C·R_be] / [C·R_be²] (with [R_be] the branch
    point resistance) when it hangs off it. *)

val t_p : Tree.t -> float
(** [T_P = Σ R_kk C_k] — output-independent (eq. 5). *)

val times : Tree.t -> output:Tree.node_id -> Times.t
(** All three characteristic times for one output, O(n): one
    {!Analysis.make} pass, then one read.  Bit-identical to
    {!Analysis.times} on a handle of the same tree. *)

val times_direct : Tree.t -> output:Tree.node_id -> Times.t
(** Same result by pairwise shared-resistance queries (the "compute
    [R_ke] for each capacitor" algorithm of Section IV's first
    paragraph). *)

val all_output_times : Tree.t -> (string * Tree.node_id * Times.t) list
(** Times for every marked output, in marking order. *)

val elmore : Tree.t -> output:Tree.node_id -> float
(** The Elmore delay [T_De] alone (eq. 1). *)

val quadratic_sum : Tree.t -> output:Tree.node_id -> float
(** [Σ_k R_ke² C_k] — the numerator of [T_Re] before division by
    [R_ee]; exposed for tests. *)

val all_times : Tree.t -> Times.t array
(** Characteristic times of {e every} node as the output, in O(n) total
    — the "more general set of programs" the paper defers to its
    journal version: one {!Analysis.make} pass (prefix recursion down
    the tree, see there), read at every node.  Agrees with
    {!times_direct} on every node (property-tested). *)
