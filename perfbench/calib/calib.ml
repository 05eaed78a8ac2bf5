(* A fixed reference job, run between the benchmark's timed rounds so
   that it can scale their times to one machine speed.  It uses only the
   standard library, so no change to rcdelay changes its work: it
   formats and parses numbers (as a deck reader does), allocates short-
   and long-lived nodes (as the elaborator does), and sweeps float arrays
   larger than the caches along a parent pointer (as the moment pass and
   the tree solver do), in as many domains as rcdelay's pool uses by
   default, at most two.  A smaller working set, or one domain, tracked
   rcdelay's slow-downs on a shared host less closely.  It prints a
   checksum, the same on every run. *)

let n = 300_000

let job () =
  let st = Random.State.make [| 20_260_417 |] in
  (* text round trip *)
  let buf = Buffer.create (16 * n) in
  for i = 0 to n - 1 do
    Printf.bprintf buf "R%d n%d %.6g\n" i (i / 2) (Random.State.float st 1e3)
  done;
  let sum_r = ref 0.0 in
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | [ _; _; v ] -> sum_r := !sum_r +. float_of_string v
         | _ -> ());
  (* a random tree: parent before child, keyed through a hash table *)
  let parent = Array.init n (fun i -> if i = 0 then -1 else Random.State.int st i) in
  let names = Hashtbl.create n in
  Array.iteri (fun i p -> Hashtbl.replace names ("n" ^ string_of_int i) p) parent;
  let r = Array.init n (fun _ -> 1.0 +. Random.State.float st 1.0) in
  let c = Array.init n (fun _ -> 1.0 +. Random.State.float st 1.0) in
  (* downstream capacitance leaf-first, then path resistance root-first,
     repeated like the steps of a transient *)
  let down = Array.make n 0.0 and td = Array.make n 0.0 in
  for _ = 1 to 15 do
    Array.blit c 0 down 0 n;
    for i = n - 1 downto 1 do
      down.(parent.(i)) <- down.(parent.(i)) +. down.(i)
    done;
    for i = 1 to n - 1 do
      td.(i) <- td.(parent.(i)) +. (r.(i) *. down.(i))
    done;
    for i = 0 to n - 1 do
      c.(i) <- 1.0 +. (0.5 *. Float.rem (c.(i) +. (td.(i) *. 1e-9)) 1.0)
    done
  done;
  let leaves = List.init n (fun i -> (i, td.(i))) |> List.filter (fun (i, _) -> i land 7 = 0) in
  let sorted = List.sort (fun (_, a) (_, b) -> Float.compare a b) leaves in
  let hops = ref 0 in
  List.iter
    (fun (i, _) ->
      let j = ref i in
      while !j > 0 do
        j := parent.(!j);
        incr hops
      done)
    sorted;
  Printf.sprintf "%d %d %.6e %.6e" (Hashtbl.length names) !hops !sum_r td.(n - 1)

let () =
  let d = Int.min 2 (Domain.recommended_domain_count ()) in
  let ds = List.init (d - 1) (fun _ -> Domain.spawn job) in
  let r = job () in
  List.iter (fun x -> assert (Domain.join x = r)) ds;
  print_endline r
