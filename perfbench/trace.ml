(* In-memory span recorder for the traced benchmark run.

   A span is one call into a layer: name, start, end, the enclosing
   span and the op it belongs to, plus the minor words allocated while
   it was open. Spans live in growable parallel arrays so recording
   costs a few stores; they are written out as Chrome trace-event JSON
   only when the run ends. With recording off, [span] is a plain call. *)

type t = {
  mutable on : bool;
  mutable n : int;
  mutable name : string array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable op : int array;
  mutable words : float array;
  mutable current : int;  (* innermost open span, -1 at top level *)
  mutable op_id : int;
}

let create () =
  let cap = 1024 in
  {
    on = false;
    n = 0;
    name = Array.make cap "";
    start = Array.make cap 0.0;
    stop = Array.make cap 0.0;
    parent = Array.make cap (-1);
    op = Array.make cap 0;
    words = Array.make cap 0.0;
    current = -1;
    op_id = 0;
  }

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  t.name <- extend t.name "";
  t.start <- extend t.start 0.0;
  t.stop <- extend t.stop 0.0;
  t.parent <- extend t.parent (-1);
  t.op <- extend t.op 0;
  t.words <- extend t.words 0.0

(* [rename] names the span after its result is known (a serve request
   is a hit or a miss only once it has been handled). *)
let span ?rename t name f =
  if not t.on then f ()
  else begin
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- name;
    t.parent.(i) <- t.current;
    t.op.(i) <- t.op_id;
    let saved = t.current in
    t.current <- i;
    let close () =
      t.stop.(i) <- Unix.gettimeofday ();
      t.words.(i) <- Gc.minor_words () -. t.words.(i);
      t.current <- saved
    in
    t.words.(i) <- Gc.minor_words ();
    t.start.(i) <- Unix.gettimeofday ();
    match f () with
    | v ->
      close ();
      Option.iter (fun r -> t.name.(i) <- r v) rename;
      v
    | exception e ->
      close ();
      raise e
  end

type layer = { count : int; self_s : float; words : float }

(* Self time: a span's duration minus the part its children cover
   (children of one span never overlap — the benchmark is serial). *)
let layers t =
  let child_s = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child_s.(p) <- child_s.(p) +. (t.stop.(i) -. t.start.(i))
  done;
  let table = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let self_s = t.stop.(i) -. t.start.(i) -. child_s.(i) in
    let l =
      Option.value
        (Hashtbl.find_opt table t.name.(i))
        ~default:{ count = 0; self_s = 0.0; words = 0.0 }
    in
    Hashtbl.replace table t.name.(i)
      { count = l.count + 1; self_s = l.self_s +. self_s;
        words = l.words +. t.words.(i) }
  done;
  table

let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t0 = if t.n > 0 then t.start.(0) else 0.0 in
      let us x = (x -. t0) *. 1e6 in
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
           \"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"op\":%d,\
           \"minor_words\":%.0f}}\n"
          (if i = 0 then "" else ",")
          t.name.(i) (us t.start.(i))
          (us t.stop.(i) -. us t.start.(i))
          i t.parent.(i) t.op.(i) t.words.(i)
      done;
      output_string oc "]}\n")
