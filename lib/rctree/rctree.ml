(** Penfield–Rubinstein delay bounds for RC tree networks.

    This is the public face of the library; see the individual modules
    for the details of each stage:

    - {!Element}, {!Tree}: network representation
    - {!Expr}, {!Twoport}: the paper's linear-time construction algebra
    - {!Path}, {!Moments}, {!Times}: characteristic times
    - {!Analysis}: the query handle — build it once per tree, then ask
      for times, delay and voltage bounds and certificates
    - {!Bounds}: the delay/voltage bounds and certification
    - {!Incremental}: memoized what-if edits and batch sweeps
    - {!Lump}, {!Convert}, {!Validate}, {!Units}: supporting tools *)

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
module Convert = Convert
module Lump = Lump
module Validate = Validate
module Units = Units
module Analysis = Analysis
