(* Work-chunking domain pool.

   One job at a time: the submitter splits [0, n) into chunks, posts
   the job, and participates in draining it alongside the resident
   worker domains.  Chunks are handed out through an atomic cursor, so
   a domain that finishes early simply grabs the next chunk — cheap
   dynamic load balancing with no per-item locking.  Results are
   index-addressed by [map]'s body, which is what makes it
   deterministic: execution order varies, the index→slot mapping never
   does. *)

let m_jobs = Obs.Counter.make "pool.jobs"
let m_chunks = Obs.Counter.make "pool.chunks"
let m_tasks = Obs.Counter.make "pool.tasks"
let m_worker_chunks = Obs.Counter.make "pool.worker_chunks"
let m_busy = Obs.Histogram.make "pool.domain_busy_ms"

type job = {
  run : int -> int -> unit; (* execute indices [lo, hi) *)
  n : int;
  chunk_size : int;
  cursor : int Atomic.t; (* next unclaimed index *)
  total_chunks : int;
  mutable completed : int; (* chunks drained; guarded by [jm] *)
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
      (* lowest-index failing chunk; guarded by [jm] *)
  jm : Mutex.t;
  done_c : Condition.t;
}

type t = {
  size : int;
  mutable workers : unit Domain.t list;
  mutable job : job option; (* guarded by [mu] *)
  mutable seq : int; (* job generation, guarded by [mu] *)
  mutable stop : bool; (* guarded by [mu] *)
  mu : Mutex.t;
  work_c : Condition.t;
  submit_mu : Mutex.t; (* serializes concurrent submitters *)
}

let domains pool = pool.size

(* marks "this domain is currently running pool tasks"; nested
   combinator calls then fall back to the serial path instead of
   deadlocking on [submit_mu] *)
let in_task : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let execute job ~submitter =
  let t0 = Unix.gettimeofday () in
  let flag = Domain.DLS.get in_task in
  let was = !flag in
  flag := true;
  let rec drain () =
    let lo = Atomic.fetch_and_add job.cursor job.chunk_size in
    if lo < job.n then begin
      let hi = Int.min job.n (lo + job.chunk_size) in
      let failure =
        match job.run lo hi with
        | () -> None
        | exception e -> Some (lo, e, Printexc.get_raw_backtrace ())
      in
      Obs.Counter.incr m_chunks;
      if not submitter then Obs.Counter.incr m_worker_chunks;
      Obs.Counter.add m_tasks (hi - lo);
      Mutex.lock job.jm;
      (match failure with
      | Some (flo, _, _) ->
          (match job.failed with
          | Some (lo0, _, _) when lo0 <= flo -> ()
          | Some _ | None -> job.failed <- failure)
      | None -> ());
      job.completed <- job.completed + 1;
      if job.completed = job.total_chunks then Condition.broadcast job.done_c;
      Mutex.unlock job.jm;
      drain ()
    end
  in
  drain ();
  flag := was;
  Obs.Histogram.observe m_busy ((Unix.gettimeofday () -. t0) *. 1e3)

let worker pool () =
  let rec loop last_seq =
    Mutex.lock pool.mu;
    while (not pool.stop) && pool.seq = last_seq do
      Condition.wait pool.work_c pool.mu
    done;
    if pool.stop then Mutex.unlock pool.mu
    else begin
      let seq = pool.seq and job = pool.job in
      Mutex.unlock pool.mu;
      (match job with Some j -> execute j ~submitter:false | None -> ());
      loop seq
    end
  in
  loop 0

let env_jobs =
  match Sys.getenv_opt "RCDELAY_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with Some j when j >= 1 -> Some j | _ -> None)

let default_size =
  ref (match env_jobs with Some j -> j | None -> Int.max 1 (Domain.recommended_domain_count ()))

let default_domains () = !default_size

let create ?domains () =
  let size = match domains with Some d -> d | None -> default_domains () in
  if size < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let pool =
    {
      size;
      workers = [];
      job = None;
      seq = 0;
      stop = false;
      mu = Mutex.create ();
      work_c = Condition.create ();
      submit_mu = Mutex.create ();
    }
  in
  if size > 1 then pool.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.mu;
  let already = pool.stop in
  pool.stop <- true;
  Condition.broadcast pool.work_c;
  Mutex.unlock pool.mu;
  if not already then begin
    List.iter Domain.join pool.workers;
    pool.workers <- []
  end

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let shared : t option ref = ref None
let shared_mu = Mutex.create ()

let get () =
  Mutex.lock shared_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock shared_mu) @@ fun () ->
  match !shared with
  | Some p when p.size = !default_size && not p.stop -> p
  | prev ->
      (match prev with Some p -> shutdown p | None -> ());
      let p = create ~domains:!default_size () in
      shared := Some p;
      p

let set_default_domains j =
  if j < 1 then invalid_arg "Pool.set_default_domains: jobs must be >= 1";
  default_size := j

let () = at_exit (fun () -> match !shared with Some p -> shutdown p | None -> ())

(* a handful of chunks per domain balances uneven item costs without
   drowning small batches in cursor traffic *)
let default_chunk_size n size = Int.max 1 (1 + ((n - 1) / (size * 4)))

let run ?pool ?chunk ~n body =
  if n > 0 then begin
    let pool = match pool with Some p -> p | None -> get () in
    Obs.Counter.incr m_jobs;
    if pool.size = 1 || !(Domain.DLS.get in_task) then begin
      Obs.Counter.incr m_chunks;
      Obs.Counter.add m_tasks n;
      body 0 n
    end
    else begin
      let chunk_size =
        match chunk with
        | Some c when c >= 1 -> c
        | Some _ | None -> default_chunk_size n pool.size
      in
      let job =
        {
          run = body;
          n;
          chunk_size;
          cursor = Atomic.make 0;
          total_chunks = 1 + ((n - 1) / chunk_size);
          completed = 0;
          failed = None;
          jm = Mutex.create ();
          done_c = Condition.create ();
        }
      in
      Mutex.lock pool.submit_mu;
      let release () =
        Mutex.lock pool.mu;
        pool.job <- None;
        Mutex.unlock pool.mu;
        Mutex.unlock pool.submit_mu
      in
      Fun.protect ~finally:release (fun () ->
          Mutex.lock pool.mu;
          if pool.stop then begin
            Mutex.unlock pool.mu;
            invalid_arg "Pool: pool already shut down"
          end;
          pool.job <- Some job;
          pool.seq <- pool.seq + 1;
          Condition.broadcast pool.work_c;
          Mutex.unlock pool.mu;
          execute job ~submitter:true;
          Mutex.lock job.jm;
          while job.completed < job.total_chunks do
            Condition.wait job.done_c job.jm
          done;
          Mutex.unlock job.jm);
      match job.failed with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let map ?pool ?chunk f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    (* index 0 runs in the submitter to seed the result array — the
       same element a serial [Array.map] would evaluate first *)
    let out = Array.make n (f xs.(0)) in
    run ?pool ?chunk ~n:(n - 1) (fun lo hi ->
        for i = lo + 1 to hi do
          out.(i) <- f xs.(i)
        done);
    out
  end
