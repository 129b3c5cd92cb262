(* The benchmark's own spans and counts, recorded around calls into the
   program's public functions (the program itself is not instrumented).
   Spans are kept in memory, safe to record from pool domains, and
   written out as JSON lines when the run ends. A span carries the
   minor and major words its domain allocated while it was open, read
   with Gc.counters: on OCaml 5 that read is the running domain's own
   and exact, where Gc.quick_stat sums the domains and merges their
   counts only at GC slices. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  t0 : float;
  t1 : float;
  minor_words : float;
  major_words : float;
}

let on = ref false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let spans : span list ref = ref []

let now = Clock.now

(* [span ~parent name f] runs [f id] inside a span named [name]; with
   tracing off it only runs [f 0]. *)
let span ?(parent = 0) name f =
  if not !on then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let minor0, _, major0 = Gc.counters () in
    let t0 = now () in
    let r = f id in
    let t1 = now () in
    let minor1, _, major1 = Gc.counters () in
    let s =
      { id;
        parent;
        name;
        t0;
        t1;
        minor_words = minor1 -. minor0;
        major_words = major1 -. major0 }
    in
    Mutex.protect lock (fun () -> spans := s :: !spans);
    r
  end

let all () = Mutex.protect lock (fun () -> List.rev !spans)
let named name = List.filter (fun s -> s.name = name) (all ())
let dur s = s.t1 -. s.t0
let durations name = Array.of_list (List.map dur (named name))
let total name = Stats.sum (durations name)

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_s\": %.9f, \
         \"end_s\": %.9f, \"minor_words\": %.0f, \"major_words\": %.0f}\n"
        s.id s.parent s.name s.t0 s.t1 s.minor_words s.major_words)
    (all ());
  close_out oc
