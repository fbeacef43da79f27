(* What a workload gives the measuring loop in main.ml. *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

type instance = {
  stage : int -> unit;
      (** Untimed: make the inputs of op [i] of the seeded sequence. *)
  run : unit -> unit -> bool;
      (** Timed: run the staged op; the returned check runs untimed. *)
  probe : unit -> unit;
      (** Traced runs only: standalone calls into single layers after
          an op, outside its timing. *)
  counts : unit -> metric list;
      (** Per-layer counts over the ops run so far. The loop reads
          them once the exact-repeat window is done and again at the
          end. *)
  finish : unit -> string list;
      (** Checks over the whole run; each string is one failure. *)
  close : unit -> unit;
}

type workload = {
  name : string;
  tail_pct : float;
      (** The tail percentile, fixed per workload so that runs compare:
          of 75/90/95/99, the highest with at least ten samples beyond
          it in a 35 s run on a slow host. The timed phase runs on past
          [--seconds] until it has {!min_ops} ops, which guarantees
          those ten. *)
  window : int;
      (** The first ops of the sequence, whole cycles of it: their
          counts must repeat exactly for one seed. *)
  exact : string list;  (** Count metrics read over the window. *)
  setup : Trace.t -> seed:int -> instance;
}

let min_ops w = int_of_float (Float.ceil (10.0 /. (1.0 -. (w.tail_pct /. 100.0)))) + 1

(* A seeded permutation of [0, n): every cycle of an op sequence visits
   each input once, so the mix is the same for every seed and only the
   order changes. *)
let shuffle rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [cycles rng n] maps op index -> input index through consecutive
   seeded permutations of [0, n). Ops are asked for in order. *)
let cycles rng n =
  let cycle = ref (-1) and perm = ref [||] in
  fun i ->
    if i / n <> !cycle then begin
      cycle := i / n;
      perm := shuffle rng n
    end;
    !perm.(i mod n)
