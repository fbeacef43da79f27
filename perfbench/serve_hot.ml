(* serve_hot: a resident Service fed whole wire lines. Set-up memoizes
   every schedule of four widths and fills a hot key set; the timed
   stream mixes result-cache hits with fresh-weight writes that
   re-price memoized schedules and store a new entry. It never packs. *)

module Service = Msoc_serve.Service
module Protocol = Msoc_serve.Protocol
module Instances = Msoc_testplan.Instances
module Evaluate = Msoc_testplan.Evaluate
module Plan = Msoc_testplan.Plan
module Export = Msoc_testplan.Export

let widths = [| 16; 24; 32; 40 |]

let hot_weights = [| 0.2; 0.35; 0.5; 0.65; 0.8 |]

let hot_keys = Array.length widths * Array.length hot_weights

(* One op in [block] carries a fresh weight: a cache miss. *)
let block = 4

let plan_line ~id ?search ~width weight =
  let params =
    [ ("width", Export.Int width); ("weight_time", Export.Float weight) ]
    @ Option.fold ~none:[] ~some:(fun s -> [ ("search", Export.String s) ]) search
  in
  Protocol.request_to_line
    (Protocol.request ~id ~params:(Export.Object params) Protocol.Plan)

(* The benchmark's own preparation of each width, every schedule
   memoized; built once, on the first check, outside any timing. *)
let references =
  lazy
    (Array.map
       (fun width ->
         let prepared = Evaluate.prepare (Instances.p93791m ~tam_width:width ()) in
         ignore (Plan.run_prepared ~search:Plan.Exhaustive_search prepared);
         prepared)
       widths)

let payload plan = Export.to_string (Export.plan_json plan)

(* A replica of the service's path: the problem re-priced on the
   benchmark's own memoized reference. Cheap enough for every op; a
   seeded subset is also compared with a cold Plan.run in [finish],
   which shares none of this path. *)
let expected ~w weight =
  let problem = Instances.p93791m ~weight_time:weight ~tam_width:widths.(w) () in
  payload
    (Plan.run_prepared ~search:(Plan.Heuristic { delta = 0.0 })
       (Evaluate.reweight (Lazy.force references).(w) problem))

let cold ~w weight =
  payload (Plan.run (Instances.p93791m ~weight_time:weight ~tam_width:widths.(w) ()))

let setup trace ~seed =
  let service = Service.create () in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let call line =
    match Protocol.request_of_line line with
    | Error e -> Error e
    | Ok req ->
      let resp = Service.handle service req in
      if resp.Protocol.status = Protocol.Success then
        Ok (Export.to_string resp.Protocol.result)
      else Error (Option.value resp.Protocol.error ~default:"not ok")
  in
  Array.iter
    (fun width ->
      match call (plan_line ~id:"memo" ~search:"exhaustive" ~width 0.5) with
      | Ok _ -> ()
      | Error e -> error "set-up: exhaustive plan at W=%d: %s" width e)
    widths;
  let hot_text =
    Array.init hot_keys (fun h ->
        let w = h mod Array.length widths and x = h / Array.length widths in
        match call (plan_line ~id:"hot" ~width:widths.(w) hot_weights.(x)) with
        | Ok text -> text
        | Error e ->
          error "set-up: hot key %d: %s" h e;
          "")
  in
  let rng = Random.State.make [| seed; 2 |] in
  let next_hot = Harness.cycles rng hot_keys in
  let next_width = Harness.cycles rng (Array.length widths) in
  let miss_slot = ref 0 in
  let used = Hashtbl.create 4096 in
  let rec fresh_weight () =
    (* six decimals in [0.1, 0.9], never a hot weight nor a repeat *)
    let k = 100_000 + Random.State.int rng 800_001 in
    if k mod 50_000 = 0 || Hashtbl.mem used k then fresh_weight ()
    else begin
      Hashtbl.replace used k ();
      float_of_int k /. 1e6
    end
  in
  let hits = ref 0 and ops = ref 0 and packs = ref 0 and n_hot = ref 0 in
  (* the first miss of each width: (weight, payload), for [finish] *)
  let first_miss = Array.make (Array.length widths) None in
  (* staged op: request line, width index, weight, hot key (-1: fresh) *)
  let line = ref "" and w = ref 0 and weight = ref 0.0 and hot = ref (-1) in
  let stage i =
    if i mod block = 0 then miss_slot := Random.State.int rng block;
    let id = "q" ^ string_of_int i in
    if i mod block = !miss_slot then begin
      w := next_width (i / block);
      weight := fresh_weight ();
      hot := -1
    end
    else begin
      let h = next_hot !n_hot in
      incr n_hot;
      w := h mod Array.length widths;
      weight := hot_weights.(h / Array.length widths);
      hot := h
    end;
    line := plan_line ~id ~width:widths.(!w) !weight
  in
  let run () =
    let line = !line and w = !w and weight = !weight and hot = !hot in
    let packs0 = Evaluate.total_packs () in
    let req = Trace.span trace "decode" (fun () -> Protocol.request_of_line line) in
    match req with
    | Error e ->
      fun () ->
        error "decode: %s" e;
        false
    | Ok req ->
      let resp =
        Trace.span trace "handle"
          ~rename:(fun r ->
            if Option.is_some r.Protocol.cached then "handle.hit" else "handle.miss")
          (fun () -> Service.handle service req)
      in
      let out = Trace.span trace "encode" (fun () -> Protocol.response_to_line resp) in
      packs := !packs + Evaluate.total_packs () - packs0;
      incr ops;
      if Option.is_some resp.Protocol.cached then incr hits;
      fun () ->
        String.length out > 0
        && resp.Protocol.status = Protocol.Success
        && Option.is_some resp.Protocol.cached = (hot >= 0)
        &&
        let text = Export.to_string resp.Protocol.result in
        if hot >= 0 then String.equal text hot_text.(hot)
        else begin
          if Option.is_none first_miss.(w) then first_miss.(w) <- Some (weight, text);
          String.equal text (expected ~w weight)
        end
  in
  let counts () =
    let per_op x = float_of_int x /. float_of_int (max 1 !ops) in
    Harness.
      [
        metric "cache.hit_ratio" "ratio" (per_op !hits);
        metric "serve.packs_timed" "count" (float_of_int !packs);
      ]
  in
  let finish () =
    (* every hot payload equals a fresh computation of its key, and the
       first hot key of each width (h = w) equals a cold Plan.run *)
    Array.iteri
      (fun h text ->
        let w = h mod Array.length widths and x = h / Array.length widths in
        if not (String.equal text (expected ~w hot_weights.(x))) then
          error "hot key %d differs from its one-shot plan" h;
        if x = 0
           && not
                (String.equal text (cold ~w hot_weights.(0)))
        then error "W=%d differs from a cold Plan.run" widths.(w))
      hot_text;
    Array.iteri
      (fun w miss ->
        match miss with
        | None -> error "no miss at W=%d" widths.(w)
        | Some (weight, text) ->
          if not (String.equal text (cold ~w weight)) then
            error "miss at W=%d, w_T=%g differs from a cold Plan.run" widths.(w) weight)
      first_miss;
    if !packs <> 0 then error "the timed phase packed %d schedules" !packs;
    List.rev !errors
  in
  {
    Harness.stage;
    run;
    probe = ignore;
    counts;
    finish;
    close = (fun () -> Service.shutdown service);
  }

let workload =
  {
    Harness.name = "serve_hot";
    tail_pct = 99.0;
    window = block * hot_keys * 8;
    exact = [ "cache.hit_ratio"; "serve.packs_timed" ];
    setup;
  }
