(** Time-stepping transient simulation of lumped RC trees — the one
    stepping core of the library.

    The general-purpose companion to {!Exact}: it handles any
    {!Rctree.Excitation.t} input (steps, ramps, staircases), at the
    price of discretization error.  Trapezoidal integration (the SPICE
    default) is second-order accurate; halving [dt] quarters the error
    — tested against {!Exact} in the suite.  Backward Euler is
    first-order but L-stable.

    The per-step linear solve goes through a [solver] selector: the
    default [`Direct] factors the tree-structured iteration matrix of
    {!Large} once with the zero-fill-in LDLᵀ of {!Numeric.Tree_ldl}
    and advances every step with two O(n) sweeps in preallocated
    buffers, allocating nothing per step; [`Cg] solves each step with
    Jacobi-preconditioned conjugate gradients on the same matrix-free
    operator (relative residual 1e-12); [`Dense] stamps the circuit
    independently through {!Mna} and steps it with dense LU
    ({!Numeric.Ode.step}), the O(n²) oracle the tree solvers are
    verified against (property [direct-solver]).  All three integrate
    the same discrete system, so they agree to solver roundoff. *)

type integration = Backward_euler | Trapezoidal

type solver = [ `Direct | `Cg | `Dense ]

type result

val simulate :
  ?integration:integration ->
  ?solver:solver ->
  ?cap_floor:float ->
  ?outputs:Rctree.Tree.node_id list ->
  Rctree.Tree.t ->
  dt:float ->
  t_end:float ->
  input:Rctree.Excitation.t ->
  result
(** Simulates from [t = 0] with all nodes discharged, driving the input
    node with [input], and records only the [outputs] nodes (default:
    the tree's marked outputs).  Samples fall at [0, dt, 2dt, ...]
    (accumulated in floating point) up to the first one at or past
    [t_end].  Requirements on the tree are those of {!Mna.of_tree}.
    Raises [Invalid_argument] for a non-positive or non-finite [dt], a
    negative or non-finite [t_end], or an unknown output node. *)

val step_input : Rctree.Excitation.t
(** {!Rctree.Excitation.unit_step}: 1 from [t = 0] on (the 0+ value,
    which keeps trapezoidal integration second-order accurate). *)

val waveform : result -> node:Rctree.Tree.node_id -> Waveform.t
(** The recorded waveform of one node.  The input node's waveform is
    the sampled input.  Raises [Invalid_argument] on a node that was
    not recorded. *)
