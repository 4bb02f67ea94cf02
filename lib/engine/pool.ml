(** Domain-based worker pool claiming indices from one atomic counter. *)

(* Queue wait is the time from pool start to the moment a worker
   claims the item; run time is the application of [f] itself.  Striped
   atomics, so recording from every worker domain is lock-free.  Plain
   values, not [lazy]: forcing one lazy from two domains at once raises
   [CamlinternalLazy.Undefined]. *)
let m_queue_wait = Wap_obs.Metrics.histogram "engine.pool.queue_wait_seconds"
let m_task_run = Wap_obs.Metrics.histogram "engine.pool.task_run_seconds"
let m_tasks = Wap_obs.Metrics.counter "engine.pool.tasks"

(* ------------------------------------------------------------------ *)
(* Parallel map.                                                       *)

let map ?(jobs = Config.default_jobs ()) (f : 'a -> 'b) (xs : 'a array) :
    'b array =
  let n = Array.length xs in
  let jobs = max 1 (min jobs n) in
  let t_start = Wap_obs.Clock.now_ns () in
  let timed_apply x =
    let t0 = Wap_obs.Clock.now_ns () in
    Wap_obs.Metrics.observe m_queue_wait
      (Wap_obs.Clock.ns_to_s (t0 - t_start));
    let y = f x in
    Wap_obs.Metrics.observe m_task_run
      (Wap_obs.Clock.ns_to_s (Wap_obs.Clock.elapsed_ns t0));
    Wap_obs.Metrics.incr m_tasks;
    y
  in
  if jobs <= 1 then Array.map timed_apply xs
  else begin
    let results : 'b option array = Array.make n None in
    (* first failure by input index, so the escaping exception is
       independent of scheduling *)
    let failure : (int * exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    let record_failure i exn bt =
      let rec retry () =
        let cur = Atomic.get failure in
        let better = match cur with None -> true | Some (j, _, _) -> i < j in
        if better && not (Atomic.compare_and_set failure cur (Some (i, exn, bt)))
        then retry ()
      in
      retry ()
    in
    let next = Atomic.make 0 in
    (* every task runs even after a failure, so the failure with the
       lowest input index is found deterministically *)
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match timed_apply xs.(i) with
        | y -> results.(i) <- Some y
        | exception exn -> record_failure i exn (Printexc.get_raw_backtrace ()));
        worker ()
      end
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    (match Atomic.get failure with
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ());
    Array.map (function Some y -> y | None -> assert false) results
  end

let map_list ?jobs f xs = Array.to_list (map ?jobs f (Array.of_list xs))
