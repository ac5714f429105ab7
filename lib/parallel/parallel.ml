(* A fixed pool of worker domains plus ordered fan-out on top of it.

   Design notes:
   - The pool is a single global job queue guarded by a mutex/condition.
     Workers loop popping thunks; they never block on anything except the
     queue, so they are always available to make progress on some batch.
   - A batch hands out task indices through an atomic counter; whoever
     grabs an index (pool worker or the submitting domain itself) runs
     that task. The submitter "helps": it drains indices like a worker
     and only then waits for stragglers. Because waiting happens only
     after every index has been claimed by a running domain, nested
     [map_list] calls cannot deadlock — a worker whose task fans out a
     sub-batch simply helps execute that sub-batch.
   - Results land in a per-batch array slot per index, so output order is
     submission order no matter who ran what when. Exceptions are stored
     per batch, keeping the one with the lowest task index so a failing
     run fails the same way at every job count. *)

let () =
  (* Domains need the OCaml 5 multicore runtime. The check is redundant
     when compiling (Domain does not exist on 4.x) but turns a stale
     build against an old runtime into a clear startup error. *)
  match String.index_opt Sys.ocaml_version '.' with
  | Some i when int_of_string (String.sub Sys.ocaml_version 0 i) >= 5 -> ()
  | _ ->
    failwith
      "Parallel: the OCaml 5 multicore runtime (Domain support) is required; \
       rebuild with an OCaml >= 5 compiler"

let recommended () = Stdlib.max 1 (Domain.recommended_domain_count ())

(* 0 = no override; set_default_domains stores a positive job count. *)
let override = Atomic.make 0

let set_default_domains n =
  if n < 1 then invalid_arg "Parallel.set_default_domains: n < 1";
  Atomic.set override n

let default_domains () =
  let n = Atomic.get override in
  if n >= 1 then n else recommended ()

(* ------------------------------------------------------------------ *)
(* The worker pool                                                     *)
(* ------------------------------------------------------------------ *)

type pool = {
  m : Mutex.t;
  nonempty : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t list;
  mutable stopping : bool;
}

(* The runtime supports at most ~128 live domains; stay clear of it. *)
let max_workers = 120

let pool_m = Mutex.create ()
let pool_ref : pool option ref = ref None

let worker_loop p =
  let rec loop () =
    Mutex.lock p.m;
    while Queue.is_empty p.jobs && not p.stopping do
      Condition.wait p.nonempty p.m
    done;
    if Queue.is_empty p.jobs then Mutex.unlock p.m (* stopping, drained *)
    else begin
      let job = Queue.pop p.jobs in
      Mutex.unlock p.m;
      job (); (* batch jobs store their own exceptions; never raises *)
      loop ()
    end
  in
  loop ()

(* Get (or lazily build) the pool, growing it to at least [want_workers]
   workers — sized from the hardware by default, larger only if a caller
   explicitly asks for more jobs than cores. *)
let get_pool ~want_workers =
  Mutex.lock pool_m;
  let p =
    match !pool_ref with
    | Some p -> p
    | None ->
      let p =
        { m = Mutex.create (); nonempty = Condition.create ();
          jobs = Queue.create (); workers = []; stopping = false }
      in
      pool_ref := Some p;
      p
  in
  let have = List.length p.workers in
  let target =
    Stdlib.min max_workers (Stdlib.max want_workers (recommended () - 1))
  in
  if target > have then
    for _ = 1 to target - have do
      p.workers <- Domain.spawn (fun () -> worker_loop p) :: p.workers
    done;
  Mutex.unlock pool_m;
  p

let submit p job =
  Mutex.lock p.m;
  Queue.push job p.jobs;
  Condition.signal p.nonempty;
  Mutex.unlock p.m

let shutdown () =
  Mutex.lock pool_m;
  let p = !pool_ref in
  pool_ref := None;
  Mutex.unlock pool_m;
  match p with
  | None -> ()
  | Some p ->
    Mutex.lock p.m;
    p.stopping <- true;
    Condition.broadcast p.nonempty;
    Mutex.unlock p.m;
    List.iter Domain.join p.workers

let () = at_exit shutdown

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

type ('a, 'b) batch = {
  f : 'a -> 'b;
  tasks : 'a array;
  results : 'b option array;
  next : int Atomic.t;
  bm : Mutex.t;
  finished : Condition.t;
  mutable completed : int;
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
}

let run_one b i =
  (match b.f b.tasks.(i) with
  | v -> b.results.(i) <- Some v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.lock b.bm;
    (match b.failure with
    | Some (j, _, _) when j < i -> ()
    | Some _ | None -> b.failure <- Some (i, e, bt));
    Mutex.unlock b.bm);
  Mutex.lock b.bm;
  b.completed <- b.completed + 1;
  if b.completed = Array.length b.tasks then Condition.broadcast b.finished;
  Mutex.unlock b.bm

let rec drain b =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < Array.length b.tasks then begin
    run_one b i;
    drain b
  end

let map_list ?domains f xs =
  let domains =
    match domains with
    | Some d -> if d < 1 then invalid_arg "Parallel.map_list: domains < 1" else d
    | None -> default_domains ()
  in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when domains = 1 -> List.map f xs
  | _ ->
    let tasks = Array.of_list xs in
    let n = Array.length tasks in
    let b =
      { f; tasks; results = Array.make n None; next = Atomic.make 0;
        bm = Mutex.create (); finished = Condition.create (); completed = 0;
        failure = None }
    in
    let helpers = Stdlib.min (domains - 1) (n - 1) in
    let p = get_pool ~want_workers:helpers in
    for _ = 1 to helpers do
      submit p (fun () -> drain b)
    done;
    drain b;
    Mutex.lock b.bm;
    while b.completed < n do
      Condition.wait b.finished b.bm
    done;
    let failure = b.failure in
    Mutex.unlock b.bm;
    (match failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) b.results)

let run_pair ?domains f g =
  match
    map_list ?domains
      (fun thunk -> thunk ())
      [ (fun () -> `A (f ())); (fun () -> `B (g ())) ]
  with
  | [ `A a; `B b ] -> (a, b)
  | _ -> assert false
