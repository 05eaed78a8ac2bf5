(** A work-chunking pool of OCaml 5 domains for embarrassingly
    parallel batch workloads.  Its one user is the fuzz harness
    ([Check.Runner]), whose per-case oracles cost milliseconds each;
    every production analysis is a few O(n) sweeps and runs serially.

    Design points:

    - {e Determinism}: {!map} assigns work by index and writes results
      into index-addressed slots, so its output is bit-identical
      whatever the domain count or execution interleaving — a pool of
      [n] domains is an optimization, never a semantic change.
    - {e Work chunking}: an index range is split into chunks (several
      per domain) handed out through an atomic cursor, so uneven item
      costs balance across domains without per-item synchronisation.
    - {e Exception capture}: an exception raised by a task is caught in
      the executing domain and re-raised (with its backtrace) in the
      submitting domain once the batch has drained.  When several
      chunks fail, the one covering the lowest index wins, again for
      determinism.
    - {e Re-entrancy}: calling {!map} from inside a pool task (or
      with a 1-domain pool) degrades to the serial path rather than
      deadlocking.

    The shared pool {!get} is sized by [RCDELAY_JOBS] (or the
    hardware's recommended domain count when unset) and can be resized
    with {!set_default_domains} — [rcdelay selfcheck --jobs] does
    exactly that.  Metrics: the pool reports [pool.jobs], [pool.chunks],
    [pool.tasks], [pool.worker_chunks] counters and a
    [pool.domain_busy_ms] histogram through {!Obs}. *)

type t

val create : ?domains:int -> unit -> t
(** A pool running work on [domains] domains in total: the submitting
    domain participates, so [domains - 1] worker domains are spawned
    (none for [domains = 1], which is a purely serial pool).
    [domains] defaults to {!default_domains}.  Raises
    [Invalid_argument] when [domains < 1]. *)

val domains : t -> int
(** Total parallelism of the pool (including the submitter). *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; using the pool
    afterwards raises [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val default_domains : unit -> int
(** The size used for {!get} and [create] without [~domains]: the
    [RCDELAY_JOBS] environment variable when set to a positive
    integer, otherwise [Domain.recommended_domain_count ()]. *)

val set_default_domains : int -> unit
(** Override {!default_domains} ([rcdelay selfcheck --jobs]).  If the shared
    pool already exists at a different size it is shut down and
    re-created lazily.  Raises [Invalid_argument] when [< 1]. *)

val get : unit -> t
(** The process-wide shared pool, created on first use at
    {!default_domains} and shut down automatically at exit. *)

val map : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map], parallel over the pool in chunks of [chunk]
    indices (default: a few chunks per domain); element order (and,
    for a deterministic [f], every bit of the result) matches the
    serial map.  [f] must be safe to call concurrently from several
    domains.  [pool] defaults to {!get}. *)
