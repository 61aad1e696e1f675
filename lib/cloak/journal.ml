(* Write-ahead journal for cloaking metadata. See journal.mli for the
   on-store layout and the crash-consistency argument. *)

type store = {
  blocks : int;
  block_size : int;
  read : int -> bytes;
  write : int -> bytes -> unit;
}

let min_blocks = 5

type event =
  | Update of { tag : string; idx : int; version : int; iv : bytes; mac : bytes }
  | Intent of { tag : string; idx : int; dev : string; block : int }
  | Commit of { tag : string; idx : int; dev : string; block : int }
  | Freed of { dev : string; block : int }
  | Dropped_page of { tag : string; idx : int }
  | Dropped_resource of { tag : string }
  | Generation of { id : int; gen : int; size : int; pages : int }
  | Seal of { tag : string; gen : int }

type bind = { dev : string; block : int }
type page = { version : int; iv : bytes; mac : bytes }

type state = {
  pages : (string * int, page) Hashtbl.t;
  binds : (string * int, bind) Hashtbl.t;
  inflight : (string * int, bind) Hashtbl.t;
  gens : (int, int * int * int) Hashtbl.t;
  seals : (string, int) Hashtbl.t;
}

let fresh_state () =
  {
    pages = Hashtbl.create 64;
    binds = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    gens = Hashtbl.create 8;
    seals = Hashtbl.create 8;
  }

(* --- record shapes ---

   Log records and checkpoint lines share four field shapes: page
   metadata, a device bind, a shm generation, and a name with a number
   (seal generation, freed block, dropped page). Each shape has one
   renderer and one reader, used by both formats; iv and mac travel as
   lowercase hex. Readers hand the fields to [k]. *)

let to_hex = Oscrypto.Sha256.hex

let page_line k tag idx version iv mac =
  Printf.sprintf "%c|%s|%d|%d|%s|%s" k tag idx version (to_hex iv) (to_hex mac)

let bind_line k tag idx dev block = Printf.sprintf "%c|%s|%d|%s|%d" k tag idx dev block
let gen_line k id gen size pages = Printf.sprintf "%c|%d|%d|%d|%d" k id gen size pages
let pair_line k name n = Printf.sprintf "%c|%s|%d" k name n

module W = Oscrypto.Wire

let ( let* ) = W.( let* )

let read_page c k =
  let* tag = W.field c '|' in
  let* idx = W.int ~lo:0 ~sep:'|' c in
  let* version = W.int ~sep:'|' c in
  let* iv = W.hex_bytes c 16 in
  let* () = W.literal c "|" in
  let* mac = W.hex_bytes c 32 in
  Ok (k tag idx version iv mac)

let read_bind c k =
  let* tag = W.field c '|' in
  let* idx = W.int ~lo:0 ~sep:'|' c in
  let* dev = W.field c '|' in
  let* block = W.int ~lo:0 c in
  Ok (k tag idx dev block)

let read_gen c k =
  let* id = W.int ~sep:'|' c in
  let* gen = W.int ~sep:'|' c in
  let* size = W.int ~sep:'|' c in
  let* pages = W.int ~lo:0 c in
  Ok (k id gen size pages)

let read_pair ?lo c k =
  let* name = W.field c '|' in
  let* n = W.int ?lo c in
  Ok (k name n)

(* --- log record bodies --- *)

let encode_event = function
  | Update { tag; idx; version; iv; mac } -> page_line 'U' tag idx version iv mac
  | Intent { tag; idx; dev; block } -> bind_line 'I' tag idx dev block
  | Commit { tag; idx; dev; block } -> bind_line 'C' tag idx dev block
  | Freed { dev; block } -> pair_line 'X' dev block
  | Dropped_page { tag; idx } -> pair_line 'D' tag idx
  | Dropped_resource { tag } -> "F|" ^ tag
  | Generation { id; gen; size; pages } -> gen_line 'G' id gen size pages
  | Seal { tag; gen } -> pair_line 'S' tag gen

let read_event c =
  let* kind = W.field c '|' in
  let* ev =
    match kind with
    | "U" -> read_page c (fun tag idx version iv mac -> Update { tag; idx; version; iv; mac })
    | "I" -> read_bind c (fun tag idx dev block -> Intent { tag; idx; dev; block })
    | "C" -> read_bind c (fun tag idx dev block -> Commit { tag; idx; dev; block })
    | "X" -> read_pair ~lo:0 c (fun dev block -> Freed { dev; block })
    | "D" -> read_pair ~lo:0 c (fun tag idx -> Dropped_page { tag; idx })
    | "F" ->
        let* tag = W.raw c (W.remaining c) in
        Ok (Dropped_resource { tag = Bytes.unsafe_to_string tag })
    | "G" -> read_gen c (fun id gen size pages -> Generation { id; gen; size; pages })
    | "S" -> read_pair c (fun tag gen -> Seal { tag; gen })
    | _ -> W.fail c "record kind"
  in
  let* () = W.eof c in
  Ok ev

let decode_event body = read_event (W.of_string body)

(* --- the materialized view --- *)

let drop_bound tbl ~dev ~block =
  let doomed =
    Hashtbl.fold (fun k (b : bind) acc -> if b.dev = dev && b.block = block then k :: acc else acc)
      tbl []
  in
  List.iter (Hashtbl.remove tbl) doomed

let drop_tagged tbl tag =
  let doomed = Hashtbl.fold (fun (t, i) _ acc -> if t = tag then (t, i) :: acc else acc) tbl [] in
  List.iter (Hashtbl.remove tbl) doomed

let apply st = function
  | Update { tag; idx; version; iv; mac } ->
      (* the new version makes any prior durable ciphertext stale: a bind
         surviving here would read as torn at recovery, so invalidate it *)
      Hashtbl.replace st.pages (tag, idx) { version; iv; mac };
      Hashtbl.remove st.binds (tag, idx);
      Hashtbl.remove st.inflight (tag, idx)
  | Intent { tag; idx; dev; block } -> Hashtbl.replace st.inflight (tag, idx) { dev; block }
  | Commit { tag; idx; dev; block } ->
      Hashtbl.replace st.binds (tag, idx) { dev; block };
      Hashtbl.remove st.inflight (tag, idx)
  | Freed { dev; block } ->
      drop_bound st.binds ~dev ~block;
      drop_bound st.inflight ~dev ~block
  | Dropped_page { tag; idx } ->
      Hashtbl.remove st.pages (tag, idx);
      Hashtbl.remove st.binds (tag, idx);
      Hashtbl.remove st.inflight (tag, idx)
  | Dropped_resource { tag } ->
      drop_tagged st.pages tag;
      drop_tagged st.binds tag;
      drop_tagged st.inflight tag
  | Generation { id; gen; size; pages } -> Hashtbl.replace st.gens id (gen, size, pages)
  | Seal { tag; gen } -> Hashtbl.replace st.seals tag gen

(* --- geometry --- *)

type geom = { ckpt_blocks : int; log_start : int; log_blocks : int }

let geometry store =
  if store.blocks < min_blocks then
    invalid_arg
      (Printf.sprintf "Journal: store needs at least %d blocks, got %d" min_blocks store.blocks);
  let ckpt_blocks = max 1 ((store.blocks - 2) / 4) in
  let log_start = 2 + (2 * ckpt_blocks) in
  { ckpt_blocks; log_start; log_blocks = store.blocks - log_start }

type t = {
  store : store;
  key : bytes;
  engine : Inject.t option;
  trace : Trace.t;
  geom : geom;
  st : state;
  log_buf : bytes;  (* in-memory mirror of the log region *)
  mutable epoch : int;
  mutable log_pos : int;
  mutable chain : bytes;
  ckpt_every : int;
  mutable since_ckpt : int;
  mutable appended : int;
  mutable ckpts : int;
  mutable writes : int;
  mutable observer : (event -> unit) option;
}

let state t = t.st
let epoch t = t.epoch
let records_appended t = t.appended
let checkpoints_taken t = t.ckpts
let store_writes t = t.writes
let set_observer t obs = t.observer <- obs

let knows t ~tag ~idx = Hashtbl.mem t.st.pages (tag, idx)

let references_block t ~dev ~block =
  let hit tbl = Hashtbl.fold (fun _ (b : bind) acc -> acc || (b.dev = dev && b.block = block)) tbl false in
  hit t.st.binds || hit t.st.inflight

let bwrite t i data =
  t.writes <- t.writes + 1;
  t.store.write i data

let anchor ~key epoch = Oscrypto.Hmac.mac_string ~key:(Bytes.to_string key) (Printf.sprintf "anchor|%d" epoch)

(* --- checkpoint serialization --- *)

let snapshot_lines st =
  let page_lines =
    Hashtbl.fold
      (fun (tag, idx) (p : page) acc -> page_line 'M' tag idx p.version p.iv p.mac :: acc)
      st.pages []
  and bind_lines k tbl =
    Hashtbl.fold
      (fun (tag, idx) (b : bind) acc -> bind_line k tag idx b.dev b.block :: acc)
      tbl []
  and gen_lines =
    Hashtbl.fold
      (fun id (gen, size, pages) acc -> gen_line 'N' id gen size pages :: acc)
      st.gens []
  and seal_lines = Hashtbl.fold (fun tag gen acc -> pair_line 'S' tag gen :: acc) st.seals [] in
  List.sort String.compare
    (page_lines @ bind_lines 'B' st.binds @ bind_lines 'P' st.inflight @ gen_lines
   @ seal_lines)

let read_snapshot_line st c =
  let* kind = W.field c '|' in
  let* () =
    match kind with
    | "M" ->
        read_page c (fun tag idx version iv mac ->
            Hashtbl.replace st.pages (tag, idx) { version; iv; mac })
    | "B" | "P" ->
        read_bind c (fun tag idx dev block ->
            Hashtbl.replace (if kind = "B" then st.binds else st.inflight) (tag, idx)
              { dev; block })
    | "N" ->
        read_gen c (fun id gen size pages -> Hashtbl.replace st.gens id (gen, size, pages))
    | "S" -> read_pair c (fun tag gen -> Hashtbl.replace st.seals tag gen)
    | _ -> W.fail c "line kind"
  in
  W.literal c "\n"

let ckpt_magic = "OVSJC"
let sb_magic = "OVSJS"

let encode_checkpoint st ~epoch =
  let lines = snapshot_lines st in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%s|%d|%d\n" ckpt_magic epoch (List.length lines));
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    lines;
  Buffer.to_bytes buf

(* Only the canonical form is accepted — the bytes [encode_checkpoint]
   writes for the state they parse to (sorted, no repeated key) — and only
   for the epoch the superblock names. *)
let decode_checkpoint ~epoch body =
  let c = W.of_bytes body and st = fresh_state () in
  let* () = W.literal c (ckpt_magic ^ "|") in
  let* _ = W.int ~lo:epoch ~hi:epoch ~sep:'|' c in
  let* n = W.int ~lo:0 ~sep:'\n' c in
  let* _ = W.count n (read_snapshot_line st) c in
  let* () = W.eof c in
  if Bytes.equal (encode_checkpoint st ~epoch) body then Ok st
  else W.fail c "canonical checkpoint"

(* Write [data] into the checkpoint area of [epoch] (epochs alternate
   between the two), zero-padding to whole blocks. [limit] bounds how many
   area blocks are actually written — the crash injection uses it to
   leave a deliberately partial checkpoint. *)
let write_ckpt_area t ~epoch ~data ~limit =
  let bs = t.store.block_size in
  let area = 2 + (epoch mod 2 * t.geom.ckpt_blocks) in
  let nblocks = (Bytes.length data + bs - 1) / bs in
  if nblocks > t.geom.ckpt_blocks then
    invalid_arg "Journal: checkpoint exceeds its area (journal_blocks too small)";
  for i = 0 to min nblocks limit - 1 do
    let blk = Bytes.make bs '\000' in
    let off = i * bs in
    Bytes.blit data off blk 0 (min bs (Bytes.length data - off));
    bwrite t (area + i) blk
  done

(* The slot is redundant with the epoch (epochs alternate slots), so only
   [epoch mod 2] is accepted there. *)
let encode_superblock ~epoch ~len =
  Bytes.of_string (Printf.sprintf "%s|%d|%d|%d\n" sb_magic epoch (epoch mod 2) len)

let decode_superblock header =
  let c = W.of_bytes header in
  let* () = W.literal c (sb_magic ^ "|") in
  let* epoch = W.int ~lo:0 ~sep:'|' c in
  let* _ = W.int ~lo:(epoch mod 2) ~hi:(epoch mod 2) ~sep:'|' c in
  let* len = W.int ~lo:0 ~sep:'\n' c in
  let* () = W.eof c in
  Ok (epoch, len)

let write_superblock t ~epoch ~len =
  let bs = t.store.block_size in
  let header = encode_superblock ~epoch ~len in
  let tag = Oscrypto.Hmac.mac ~key:t.key header in
  let blk = Bytes.make bs '\000' in
  Bytes.blit header 0 blk 0 (Bytes.length header);
  Bytes.blit tag 0 blk (Bytes.length header) 32;
  bwrite t (epoch mod 2) blk

let event_label = function
  | Update _ -> "update"
  | Intent _ -> "intent"
  | Commit _ -> "commit"
  | Freed _ -> "freed"
  | Dropped_page _ -> "drop-page"
  | Dropped_resource _ -> "drop-resource"
  | Generation _ -> "generation"
  | Seal _ -> "seal"

let rec checkpoint t =
  Trace.span_enter t.trace ~ctx:Trace.Vmm Trace.Journal_ckpt;
  match checkpoint_body t with
  | () -> Trace.span_exit t.trace ~ctx:Trace.Vmm ~aux:t.epoch Trace.Journal_ckpt
  | exception ex ->
      (* a Jrnl_ckpt crash injection unwinds mid-checkpoint *)
      Trace.span_abort t.trace Trace.Journal_ckpt;
      raise ex

and checkpoint_body t =
  t.ckpts <- t.ckpts + 1;
  let epoch' = t.epoch + 1 in
  let body = encode_checkpoint t.st ~epoch:epoch' in
  let data = Bytes.cat body (Oscrypto.Hmac.mac ~key:t.key body) in
  (* crash probe 1: mid-checkpoint — at most one area block reaches the
     store, and the superblock still names the previous epoch *)
  (match Inject.fire_opt t.engine Inject.Jrnl_ckpt with
  | Some Inject.Crash_point ->
      write_ckpt_area t ~epoch:epoch' ~data ~limit:1;
      Inject.crashed Inject.Jrnl_ckpt
  | Some _ | None -> ());
  write_ckpt_area t ~epoch:epoch' ~data ~limit:max_int;
  (* crash probe 2: the new checkpoint is complete but unnamed — recovery
     must still come up on the previous superblock's epoch *)
  (match Inject.fire_opt t.engine Inject.Jrnl_ckpt with
  | Some Inject.Crash_point -> Inject.crashed Inject.Jrnl_ckpt
  | Some _ | None -> ());
  write_superblock t ~epoch:epoch' ~len:(Bytes.length data);
  t.epoch <- epoch';
  t.log_pos <- 0;
  t.chain <- anchor ~key:t.key epoch';
  t.since_ckpt <- 0

(* --- the log --- *)

let frame_of t body =
  let mac = Oscrypto.Hmac.mac ~key:t.key (Bytes.cat t.chain (Bytes.of_string body)) in
  let frame = Bytes.create (8 + String.length body + 32) in
  Bytes.blit_string (Printf.sprintf "%08x" (String.length body)) 0 frame 0 8;
  Bytes.blit_string body 0 frame 8 (String.length body);
  Bytes.blit mac 0 frame (8 + String.length body) 32;
  (frame, mac)

(* Flush the log-buffer bytes [from, from+len) through the store, one
   whole block at a time. *)
let flush_log_range t ~from ~len =
  if len > 0 then begin
    let bs = t.store.block_size in
    for bi = from / bs to (from + len - 1) / bs do
      bwrite t (t.geom.log_start + bi) (Bytes.sub t.log_buf (bi * bs) bs)
    done
  end

let log_capacity t = t.geom.log_blocks * t.store.block_size

let rec record t event =
  Trace.span_enter t.trace ~ctx:Trace.Vmm
    ~site:(if Trace.enabled t.trace then event_label event else "")
    Trace.Journal_append;
  match record_body t event with
  | () ->
      Trace.span_exit t.trace ~ctx:Trace.Vmm
        ~site:(if Trace.enabled t.trace then event_label event else "")
        Trace.Journal_append
  | exception ex ->
      (* a Jrnl_append crash injection unwinds mid-append *)
      Trace.span_abort t.trace Trace.Journal_append;
      raise ex

and record_body t event =
  let body = encode_event event in
  let frame_len = 8 + String.length body + 32 in
  if frame_len > log_capacity t then invalid_arg "Journal: record larger than the log";
  if t.log_pos + frame_len > log_capacity t then checkpoint t;
  let frame, mac = frame_of t body in
  (match Inject.fire_opt t.engine Inject.Jrnl_append with
  | Some Inject.Crash_point ->
      (* the power cut lands mid-append: half the frame reaches the store,
         which replay must reject as a torn tail *)
      let keep = frame_len / 2 in
      Bytes.blit frame 0 t.log_buf t.log_pos keep;
      flush_log_range t ~from:t.log_pos ~len:keep;
      Inject.crashed Inject.Jrnl_append
  | Some _ | None -> ());
  Bytes.blit frame 0 t.log_buf t.log_pos frame_len;
  flush_log_range t ~from:t.log_pos ~len:frame_len;
  t.log_pos <- t.log_pos + frame_len;
  t.chain <- mac;
  t.appended <- t.appended + 1;
  t.since_ckpt <- t.since_ckpt + 1;
  apply t.st event;
  (match t.observer with Some f -> f event | None -> ());
  if t.since_ckpt >= t.ckpt_every then checkpoint t

(* --- recovery-side reading --- *)

type recovered = { rstate : state; repoch : int; replayed : int }

let read_superblock ~key store i =
  let blk = store.read i in
  match Bytes.index_opt blk '\n' with
  | Some nl when Oscrypto.Hmac.verify_trailer ~key blk ~len:(nl + 1) ->
      Result.to_option (decode_superblock (Bytes.sub blk 0 (nl + 1)))
  | Some _ | None -> None

let load_checkpoint ~key store geom ~epoch ~len =
  let bs = store.block_size in
  if len < 33 || len > geom.ckpt_blocks * bs then None
  else begin
    let area = 2 + (epoch mod 2 * geom.ckpt_blocks) in
    let nblocks = (len + bs - 1) / bs in
    let raw = Bytes.concat Bytes.empty (List.init nblocks (fun i -> store.read (area + i))) in
    if not (Oscrypto.Hmac.verify_trailer ~key raw ~len:(len - 32)) then None
    else Result.to_option (decode_checkpoint ~epoch (Bytes.sub raw 0 (len - 32)))
  end

(* Replay stops at the first record that is torn, fails its chain MAC or
   does not parse; each record is parsed whole before it is applied. *)
let replay_log ~key store geom ~epoch st =
  let log =
    Bytes.concat Bytes.empty
      (List.init geom.log_blocks (fun i -> store.read (geom.log_start + i)))
  in
  let rec next pos chain count =
    let c = W.of_bytes ~pos log in
    match W.hex_int ~lo:1 ~hi:(W.remaining c - 40) c ~width:8 with
    | Error _ -> count
    | Ok len -> (
        (* the chain MAC covers the previous record's MAC and this body *)
        let msg = Bytes.create (32 + len + 32) in
        Bytes.blit chain 0 msg 0 32;
        Bytes.blit log (pos + 8) msg 32 (len + 32);
        if not (Oscrypto.Hmac.verify_trailer ~key msg ~len:(32 + len)) then count
        else
          match read_event (W.of_bytes ~pos:(pos + 8) ~len log) with
          | Error _ -> count
          | Ok ev ->
              apply st ev;
              next (pos + 8 + len + 32) (Bytes.sub msg (32 + len) 32) (count + 1))
  in
  next 0 (anchor ~key epoch) 0

let load ~key store =
  let geom = geometry store in
  let candidates =
    List.filter_map (read_superblock ~key store) [ 0; 1 ]
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  let rec try_candidates = function
    | [] -> { rstate = fresh_state (); repoch = 0; replayed = 0 }
    | (epoch, len) :: rest -> (
        match load_checkpoint ~key store geom ~epoch ~len with
        | None -> try_candidates rest
        | Some st ->
            let replayed = replay_log ~key store geom ~epoch st in
            { rstate = st; repoch = epoch; replayed })
  in
  try_candidates candidates

(* --- writer construction --- *)

let attach ?engine ?(trace = Trace.null) ?(ckpt_every = 64) ~key store =
  let geom = geometry store in
  let loaded = load ~key store in
  let t =
    {
      store;
      key;
      engine;
      trace;
      geom;
      st = loaded.rstate;
      log_buf = Bytes.make (geom.log_blocks * store.block_size) '\000';
      epoch = loaded.repoch;
      log_pos = 0;
      chain = anchor ~key loaded.repoch;
      ckpt_every = max 1 ckpt_every;
      since_ckpt = 0;
      appended = 0;
      ckpts = 0;
      writes = 0;
      observer = None;
    }
  in
  (* start a fresh epoch: the inherited state is compacted into a new
     checkpoint and the log is logically emptied (stale bytes fail the new
     epoch's chain anchor) *)
  checkpoint t;
  t
