(** Penfield–Rubinstein delay bounds for RC tree networks — public API.

    Reproduction of P. Penfield and J. Rubinstein, "Signal Delay in RC
    Tree Networks", Caltech Conference on VLSI, January 1981.

    Quick start: build the network, make one {!Analysis} handle, then
    ask it any number of questions.
    {[
      let net = Rctree.Convert.tree_of_expr Rctree.Expr.fig7 in
      let h = Rctree.Analysis.make net in
      let lo, hi = Rctree.Analysis.delay_bounds h ~output:(`Name "out") ~threshold:0.5
    ]} *)

module Element = Element
module Times = Times
module Twoport = Twoport
module Expr = Expr
module Tree = Tree
module Path = Path
module Moments = Moments
module Bounds = Bounds
module Transition = Transition
module Excitation = Excitation
module Higher_moments = Higher_moments
module Sensitivity = Sensitivity
module Awe = Awe

module Incremental = Incremental
(** Memoized what-if engine: persistent zipper-addressed edits over
    {!Expr.t} re-evaluating only the spine from the edit to the root,
    plus batch {!Incremental.sweep}s — bit-identical to from-scratch
    evaluation at every step. *)

module Convert = Convert
module Lump = Lump
module Validate = Validate
module Units = Units

module Analysis = Analysis
(** The query surface: {!Analysis.make} precomputes every node's
    characteristic times in one O(n) traversal, then answers any
    number of per-output queries (and [all_*] batches) by array
    reads. *)
