(* Windowed time-series registry + SLO burn-rate monitor + causal
   cross-host request tracing. See telemetry.mli for the model. *)

let default_window_cycles = 250_000
let default_span_cap = 4096

module Causal = struct
  type span = {
    cs_tid : int;
    cs_host : int;
    cs_hop : string;
    cs_seq : int;
    cs_t0 : int;
    cs_t1 : int;
  }

  type hop = {
    h_hop : string;
    h_host : int;
    h_seq : int;
    h_cycles : int;
    h_exclusive : int;
  }

  type trace = {
    tr_tid : int;
    tr_hosts : int list;
    tr_hops : hop list;
    tr_cycles : int;
    tr_critical : int;
    tr_complete : bool;
  }

  (* Canonical span order: a function of the span set alone, so a merge
     of registries yields the same list whichever way it associated. *)
  let compare_span a b =
    let c = compare a.cs_tid b.cs_tid in
    if c <> 0 then c
    else
      let c = compare a.cs_seq b.cs_seq in
      if c <> 0 then c
      else
        let c = compare a.cs_host b.cs_host in
        if c <> 0 then c
        else
          let c = compare a.cs_t0 b.cs_t0 in
          if c <> 0 then c else compare a.cs_hop b.cs_hop

  (* Cycles of [s] not covered by any nested span: same request, same
     host, interval contained in [s] and not the same span. Covered
     cycles are measured as the length of the union of the children's
     intervals, so overlapping children never double-discount. *)
  let exclusive s others =
    let inside c =
      c != s && c.cs_host = s.cs_host && c.cs_t0 >= s.cs_t0
      && c.cs_t1 <= s.cs_t1
      && (c.cs_t1 - c.cs_t0 < s.cs_t1 - s.cs_t0 || c.cs_seq > s.cs_seq)
    in
    let children =
      List.filter inside others
      |> List.map (fun c -> (max c.cs_t0 s.cs_t0, min c.cs_t1 s.cs_t1))
      |> List.sort compare
    in
    let covered, _ =
      List.fold_left
        (fun (acc, hi) (t0, t1) ->
          let t0 = max t0 hi in
          if t1 > t0 then (acc + (t1 - t0), t1) else (acc, max hi t1))
        (0, min_int) children
    in
    (s.cs_t1 - s.cs_t0) - covered

  let stitch spans =
    let groups = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let prev = try Hashtbl.find groups s.cs_tid with Not_found -> [] in
        Hashtbl.replace groups s.cs_tid (s :: prev))
      spans;
    Hashtbl.fold (fun tid group acc -> (tid, group) :: acc) groups []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (tid, group) ->
           let group = List.sort compare_span group in
           let hops =
             List.map
               (fun s ->
                 {
                   h_hop = s.cs_hop;
                   h_host = s.cs_host;
                   h_seq = s.cs_seq;
                   h_cycles = s.cs_t1 - s.cs_t0;
                   h_exclusive = exclusive s group;
                 })
               group
           in
           let hosts =
             List.fold_left
               (fun acc h ->
                 if h.h_host >= 0 && not (List.mem h.h_host acc) then
                   h.h_host :: acc
                 else acc)
               [] hops
             |> List.rev
           in
           let t0 =
             List.fold_left (fun m s -> min m s.cs_t0) max_int group
           in
           let t1 = List.fold_left (fun m s -> max m s.cs_t1) 0 group in
           {
             tr_tid = tid;
             tr_hosts = hosts;
             tr_hops = hops;
             tr_cycles = max 0 (t1 - t0);
             tr_critical =
               List.fold_left (fun a h -> a + h.h_exclusive) 0 hops;
             tr_complete =
               List.exists (fun h -> h.h_hop = "completion") hops;
           })

  let pp_trace ppf tr =
    Format.fprintf ppf "request %d: %d hops across hosts [%s], %d cycles (%d critical)%s@."
      tr.tr_tid (List.length tr.tr_hops)
      (String.concat ";" (List.map string_of_int tr.tr_hosts))
      tr.tr_cycles tr.tr_critical
      (if tr.tr_complete then "" else " [incomplete]");
    List.iter
      (fun h ->
        Format.fprintf ppf "  #%d %-12s host %2d  %8d cycles  %8d exclusive@."
          h.h_seq h.h_hop h.h_host h.h_cycles h.h_exclusive)
      tr.tr_hops
end

module Slo = struct
  type config = {
    target : float;
    fast_windows : int;
    fast_burn : float;
    slow_windows : int;
    slow_burn : float;
    hysteresis : float;
  }

  let default =
    {
      target = 0.99;
      fast_windows = 2;
      fast_burn = 6.0;
      slow_windows = 6;
      slow_burn = 2.0;
      hysteresis = 0.5;
    }

  type alert = { a_window : int; a_fast : bool; a_burn : float }

  type eval = {
    ev_windows : (int * float * float) list;
    ev_fast_fires : int;
    ev_slow_fires : int;
    ev_worst_burn : float;
    ev_alerts : alert list;
  }

  let evaluate ?(config = default) ~good ~total () =
    let tbl_good = Hashtbl.create 16 and tbl_total = Hashtbl.create 16 in
    List.iter (fun (w, n) -> Hashtbl.replace tbl_good w n) good;
    List.iter (fun (w, n) -> Hashtbl.replace tbl_total w n) total;
    let lookup tbl w = try Hashtbl.find tbl w with Not_found -> 0 in
    match List.map fst total with
    | [] ->
        {
          ev_windows = [];
          ev_fast_fires = 0;
          ev_slow_fires = 0;
          ev_worst_burn = 0.;
          ev_alerts = [];
        }
    | ws ->
        let lo = List.fold_left min max_int ws in
        let hi = List.fold_left max min_int ws in
        (* burn over the k windows ending at w: error fraction of the
           aggregated traffic, scaled by the error budget 1 - target. *)
        let burn k w =
          let g = ref 0 and t = ref 0 in
          for i = w - k + 1 to w do
            g := !g + lookup tbl_good i;
            t := !t + lookup tbl_total i
          done;
          if !t = 0 then 0.
          else
            let err = float_of_int (!t - !g) /. float_of_int !t in
            err /. (1. -. config.target)
        in
        let fast_on = ref false and slow_on = ref false in
        let fast_fires = ref 0 and slow_fires = ref 0 in
        let worst = ref 0. in
        let alerts = ref [] and windows = ref [] in
        for w = lo to hi do
          let fb = burn config.fast_windows w in
          let sb = burn config.slow_windows w in
          worst := max !worst (max fb sb);
          (* alert state machines: fire on the upward transition, clear
             only once burn decays past the hysteresis floor. *)
          if (not !fast_on) && fb > config.fast_burn then begin
            fast_on := true;
            incr fast_fires;
            alerts := { a_window = w; a_fast = true; a_burn = fb } :: !alerts
          end
          else if !fast_on && fb <= config.fast_burn *. config.hysteresis
          then fast_on := false;
          if (not !slow_on) && sb > config.slow_burn then begin
            slow_on := true;
            incr slow_fires;
            alerts := { a_window = w; a_fast = false; a_burn = sb } :: !alerts
          end
          else if !slow_on && sb <= config.slow_burn *. config.hysteresis
          then slow_on := false;
          let t = lookup tbl_total w in
          let goodput =
            if t = 0 then 1.
            else float_of_int (lookup tbl_good w) /. float_of_int t
          in
          windows := (w, goodput, max fb sb) :: !windows
        done;
        {
          ev_windows = List.rev !windows;
          ev_fast_fires = !fast_fires;
          ev_slow_fires = !slow_fires;
          ev_worst_burn = !worst;
          ev_alerts = List.rev !alerts;
        }
end

(* ---------------------------------------------------------------- *)
(* Registry                                                          *)

type gcell = {
  mutable g_stamp : int;
  mutable g_value : int;
  mutable g_min : int;
  mutable g_max : int;
}

(* One table per instrument kind, each mapping (name, host) to that
   kind's window cells (window index -> cell), so a cell can only ever be
   written by its own kind's instrument. *)
type 'cell table = (string * int, (int, 'cell) Hashtbl.t) Hashtbl.t

type t = {
  live : bool;
  width : int;
  span_cap : int;
  counters : int ref table;
  gauges : gcell table;
  hists : Trace.Hist.h table;
  mutable t_samples : int;
  mutable t_spans : Causal.span list;  (* newest first *)
  mutable t_span_count : int;
  mutable t_spans_dropped : int;
}

let create ?(window_cycles = default_window_cycles)
    ?(span_cap = default_span_cap) () =
  if window_cycles <= 0 then
    invalid_arg "Telemetry.create: window_cycles must be positive";
  {
    live = true;
    width = window_cycles;
    span_cap;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 8;
    t_samples = 0;
    t_spans = [];
    t_span_count = 0;
    t_spans_dropped = 0;
  }

let null = { (create ()) with live = false; span_cap = 0 }

let enabled t = t.live
let window_cycles t = t.width
let window_of t cycles = if cycles < 0 then 0 else cycles / t.width

let kind_of t key =
  if Hashtbl.mem t.counters key then Some "counter"
  else if Hashtbl.mem t.gauges key then Some "gauge"
  else if Hashtbl.mem t.hists key then Some "histogram"
  else None

(* The cells of series (name, host) in [table], created on first write
   unless another kind's table already holds the series. *)
let cells t table kind name host =
  match Hashtbl.find_opt table (name, host) with
  | Some cells -> cells
  | None ->
      (match kind_of t (name, host) with
      | Some other ->
          invalid_arg
            (Printf.sprintf "Telemetry: series %S is a %s, not a %s" name other kind)
      | None -> ());
      let cells = Hashtbl.create 8 in
      Hashtbl.replace table (name, host) cells;
      cells

let incr t ?(host = -1) ?(by = 1) ~at name =
  if t.live then begin
    let cells = cells t t.counters "counter" name host in
    let w = window_of t at in
    (match Hashtbl.find_opt cells w with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace cells w (ref by));
    t.t_samples <- t.t_samples + 1
  end

let gauge t ?(host = -1) ~at name v =
  if t.live then begin
    let cells = cells t t.gauges "gauge" name host in
    let w = window_of t at in
    (match Hashtbl.find_opt cells w with
    | Some g ->
        if at >= g.g_stamp then begin
          g.g_stamp <- at;
          g.g_value <- v
        end;
        g.g_min <- min g.g_min v;
        g.g_max <- max g.g_max v
    | None -> Hashtbl.replace cells w { g_stamp = at; g_value = v; g_min = v; g_max = v });
    t.t_samples <- t.t_samples + 1
  end

let observe t ?(host = -1) ~at name v =
  if t.live then begin
    let cells = cells t t.hists "histogram" name host in
    let w = window_of t at in
    let h =
      match Hashtbl.find_opt cells w with
      | Some h -> h
      | None ->
          let h = Trace.Hist.create () in
          Hashtbl.replace cells w h;
          h
    in
    Trace.Hist.add h v;
    t.t_samples <- t.t_samples + 1
  end

let span ?(host = -1) t ~tid ~hop ~seq ~t0 ~t1 =
  if t.live then begin
    if t.t_span_count >= t.span_cap then
      t.t_spans_dropped <- t.t_spans_dropped + 1
    else begin
      t.t_spans <-
        {
          Causal.cs_tid = tid;
          cs_host = host;
          cs_hop = hop;
          cs_seq = seq;
          cs_t0 = t0;
          cs_t1 = t1;
        }
        :: t.t_spans;
      t.t_span_count <- t.t_span_count + 1
    end
  end

(* ---------------------------------------------------------------- *)
(* Reading                                                           *)

let samples t = t.t_samples
let span_count t = t.t_span_count
let spans_dropped t = t.t_spans_dropped

let fold_keys t f acc =
  let over table acc = Hashtbl.fold (fun key _ acc -> f key acc) table acc in
  over t.counters (over t.gauges (over t.hists acc))

let names t = List.sort_uniq compare (fold_keys t (fun (n, _) acc -> n :: acc) [])

let hosts t name =
  List.sort_uniq compare (fold_keys t (fun (n, h) acc -> if n = name then h :: acc else acc) [])

let ascending cells =
  Hashtbl.fold (fun w c acc -> (w, c) :: acc) cells []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* One series' cells ascending by window; empty when never written. *)
let windows table ?(host = -1) name =
  match Hashtbl.find_opt table (name, host) with
  | None -> []
  | Some cells -> ascending cells

(* Per-window cells combined across every host carrying [name]. *)
let windows_all t table ~combine name =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun host ->
      List.iter
        (fun (w, c) ->
          Hashtbl.replace tbl w
            (match Hashtbl.find_opt tbl w with None -> c | Some prev -> combine prev c))
        (windows table ~host name))
    (hosts t name);
  ascending tbl

let counter_windows t ?host name =
  List.map (fun (w, r) -> (w, !r)) (windows t.counters ?host name)

let counter_total t ?host name =
  List.fold_left (fun a (_, n) -> a + n) 0 (counter_windows t ?host name)

let counter_windows_all t name =
  List.map (fun (w, r) -> (w, !r))
    (windows_all t t.counters ~combine:(fun x y -> ref (!x + !y)) name)

let gauge_windows t ?host name =
  List.map (fun (w, g) -> (w, g.g_value, g.g_min, g.g_max)) (windows t.gauges ?host name)

let gauge_last t ?(host = -1) name =
  match Hashtbl.find_opt t.gauges (name, host) with
  | None -> None
  | Some cells ->
      Hashtbl.fold
        (fun _ g acc ->
          match acc with
          | Some (stamp, _) when g.g_stamp <= stamp -> acc
          | _ -> Some (g.g_stamp, g.g_value))
        cells None

let gauge_value t ?host ?(default = 0) name =
  match gauge_last t ?host name with None -> default | Some (_, v) -> v

let hist_windows_all t name = windows_all t t.hists ~combine:Trace.Hist.merge name

let spans t = List.sort Causal.compare_span t.t_spans

(* ---------------------------------------------------------------- *)
(* Merge                                                             *)

(* Fold [src]'s cells into [dst]'s table of the same kind: [copy] a cell
   [dst] lacks, [combine] one it has. *)
let blend_table ~copy ~combine dst src =
  Hashtbl.iter
    (fun key cells ->
      let d =
        match Hashtbl.find_opt dst key with
        | Some d -> d
        | None ->
            let d = Hashtbl.create 8 in
            Hashtbl.replace dst key d;
            d
      in
      Hashtbl.iter
        (fun w c ->
          Hashtbl.replace d w
            (match Hashtbl.find_opt d w with None -> copy c | Some prev -> combine prev c))
        cells)
    src

let blend_gauge x y =
  (* last-write-wins by stamp; ties resolve by larger value so the result
     is independent of argument order. *)
  let stamp, value =
    if x.g_stamp > y.g_stamp then (x.g_stamp, x.g_value)
    else if y.g_stamp > x.g_stamp then (y.g_stamp, y.g_value)
    else (x.g_stamp, max x.g_value y.g_value)
  in
  { g_stamp = stamp; g_value = value; g_min = min x.g_min y.g_min; g_max = max x.g_max y.g_max }

let blend_into dst src =
  blend_table dst.counters src.counters ~copy:(fun r -> ref !r) ~combine:(fun x y -> ref (!x + !y));
  blend_table dst.gauges src.gauges ~copy:(fun g -> { g with g_value = g.g_value }) ~combine:blend_gauge;
  blend_table dst.hists src.hists
    ~copy:(fun h -> Trace.Hist.merge h (Trace.Hist.create ()))
    ~combine:Trace.Hist.merge;
  dst.t_samples <- dst.t_samples + src.t_samples;
  dst.t_spans <- src.t_spans @ dst.t_spans;
  dst.t_span_count <- dst.t_span_count + src.t_span_count;
  dst.t_spans_dropped <- dst.t_spans_dropped + src.t_spans_dropped

let merge a b =
  match (a.live, b.live) with
  | false, false -> null
  | _ ->
      let live = if a.live then a else b in
      if a.live && b.live && a.width <> b.width then
        invalid_arg "Telemetry.merge: window widths differ";
      let m =
        create ~window_cycles:live.width
          ~span_cap:(max a.span_cap b.span_cap) ()
      in
      if a.live then blend_into m a;
      if b.live then blend_into m b;
      (* a series is one kind in every input, or the merge is refused *)
      let keys = fold_keys m List.cons [] in
      if List.length keys <> List.length (List.sort_uniq compare keys) then
        invalid_arg "Telemetry.merge: instrument kinds disagree";
      m

let merge_all ts = List.fold_left merge null ts
