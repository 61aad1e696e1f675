(* Self time per span kind, folded from a flight-recorder stream over the
   global nesting: a span's self time is its duration minus the durations
   of the spans directly inside it. [Abort] closes a span like [Exit]
   does. Whatever no top-level span covers is the run's "outside" time.
   The fold reads whichever clock stamped the events: model cycles, or
   host nanoseconds when the benchmark swapped the recorder's clock. *)

type frame = { kind : Trace.kind; start : int; mutable child : int }

type t = {
  self : (Trace.kind, int) Hashtbl.t;
  mutable covered : int;  (** Σ durations of top-level spans *)
  mutable unmatched : int;  (** closes with no open span of their kind *)
  mutable dangling : int;  (** enters closed implicitly or never closed *)
}

let create () =
  { self = Hashtbl.create 32; covered = 0; unmatched = 0; dangling = 0 }

let self t kind = Option.value ~default:0 (Hashtbl.find_opt t.self kind)

let close t stack f ts =
  let dur = ts - f.start in
  Hashtbl.replace t.self f.kind (self t f.kind + dur - f.child);
  match stack with
  | parent :: _ -> parent.child <- parent.child + dur
  | [] -> t.covered <- t.covered + dur

(* Fold the events after the first [skip]. Frames left above the one an
   exit matches were unwound without an abort; they close at the same
   stamp and count as dangling. *)
let of_trace ?(skip = 0) trace =
  let t = create () in
  let stack = ref [] in
  let i = ref 0 in
  Trace.iter trace (fun (ev : Trace.event) ->
      if !i >= skip then begin
        match ev.phase with
        | Trace.Instant -> ()
        | Trace.Enter ->
            stack := { kind = ev.kind; start = ev.cycles; child = 0 } :: !stack
        | Trace.Exit | Trace.Abort ->
            if List.exists (fun f -> f.kind = ev.kind) !stack then begin
              let rec unwind () =
                match !stack with
                | f :: rest ->
                    stack := rest;
                    close t rest f ev.cycles;
                    if f.kind <> ev.kind then begin
                      t.dangling <- t.dangling + 1;
                      unwind ()
                    end
                | [] -> ()
              in
              unwind ()
            end
            else t.unmatched <- t.unmatched + 1
      end;
      incr i);
  t.dangling <- t.dangling + List.length !stack;
  t

let sum ts =
  let acc = create () in
  List.iter
    (fun t ->
      Hashtbl.iter (fun k v -> Hashtbl.replace acc.self k (self acc k + v)) t.self;
      acc.covered <- acc.covered + t.covered;
      acc.unmatched <- acc.unmatched + t.unmatched;
      acc.dangling <- acc.dangling + t.dangling)
    ts;
  acc

let total_self t = Hashtbl.fold (fun _ v acc -> acc + v) t.self 0
