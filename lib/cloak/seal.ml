(* Sealed checkpoints of a cloaked process. See seal.mli for the blob
   layout and the freshness argument. *)

open Machine

type page = {
  idx : int;
  version : int;
  iv : bytes;
  mac : bytes;
  cipher : bytes option;  (* None: the page was still Zero when sealed *)
}

type restored = {
  resource : Resource.t;
  gen : int;
  regs : Transfer.regs;
  layout : string;
  pages : page list;
}

let magic = "OVSCK1"

let check_layout layout =
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | ';' | ',' | ':' | '-' | '_' -> ()
      | _ -> invalid_arg "Seal.capture: layout may not contain '|' or control bytes")
    layout

(* --- the blob body (everything the MAC trailer covers) --- *)

let encode r =
  let buf = Buffer.create (256 + (List.length r.pages * (Addr.page_size + 80))) in
  Buffer.add_string buf
    (Printf.sprintf "%s|%s|%d|%d|%d|%d|%s|%s\n" magic (Resource.tag r.resource) r.gen
       (List.length r.pages) r.regs.pc r.regs.sp
       (String.concat "," (List.map string_of_int (Array.to_list r.regs.gp)))
       r.layout);
  List.iter
    (fun p ->
      match p.cipher with
      | Some cipher ->
          Buffer.add_string buf
            (Printf.sprintf "E|%d|%d|%s|%s\n" p.idx p.version
               (Oscrypto.Sha256.hex p.iv) (Oscrypto.Sha256.hex p.mac));
          Buffer.add_bytes buf cipher
      | None -> Buffer.add_string buf (Printf.sprintf "Z|%d\n" p.idx))
    r.pages;
  Buffer.to_bytes buf

let read_regs c =
  let open Oscrypto.Wire in
  let* pc = int ~sep:'|' c in
  let* sp = int ~sep:'|' c in
  let rec words acc =
    let* w = int c in
    if next_is c ',' then
      let* () = literal c "," in
      words (w :: acc)
    else Ok (List.rev (w :: acc))
  in
  let* gp = if next_is c '|' then Ok [] else words [] in
  let* () = literal c "|" in
  Ok { Transfer.pc; sp; gp = Array.of_list gp }

let read_record c =
  let open Oscrypto.Wire in
  if next_is c 'Z' then
    let* () = literal c "Z|" in
    let* idx = int ~lo:0 ~sep:'\n' c in
    Ok { idx; version = 0; iv = Bytes.empty; mac = Bytes.empty; cipher = None }
  else
    let* () = literal c "E|" in
    let* idx = int ~lo:0 ~sep:'|' c in
    let* version = int ~sep:'|' c in
    let* iv = hex_bytes c 16 in
    let* () = literal c "|" in
    let* mac = hex_bytes c 32 in
    let* () = literal c "\n" in
    let* cipher = raw c Addr.page_size in
    Ok { idx; version; iv; mac; cipher = Some cipher }

let read c =
  let open Oscrypto.Wire in
  let* () = literal c (magic ^ "|") in
  let* resource = Resource.read c in
  let* () = literal c "|" in
  let* gen = int ~sep:'|' c in
  let* npages = int ~lo:0 ~sep:'|' c in
  let* regs = read_regs c in
  let* layout = field c '\n' in
  let* pages = count npages read_record c in
  let* () = eof c in
  Ok { resource; gen; regs; layout; pages }

let decode body = read (Oscrypto.Wire.of_bytes body)

(* --- capture --- *)

let rec capture vmm ~resource ~regs ~layout ~read_page =
  let tr = Vmm.trace vmm in
  Trace.span_enter tr ~ctx:Trace.Vmm
    ~site:(if Trace.enabled tr then Resource.tag resource else "")
    Trace.Seal_capture;
  match capture_body vmm ~resource ~regs ~layout ~read_page with
  | blob ->
      if Trace.enabled tr then begin
        let tag = Resource.tag resource in
        Trace.span_exit tr ~ctx:Trace.Vmm ~site:tag
          ~aux:(Vmm.seal_generation vmm ~tag) Trace.Seal_capture
      end;
      blob
  | exception ex ->
      (* an aborted capture (torn frame, injection) unwinds mid-span *)
      Trace.span_abort tr Trace.Seal_capture;
      raise ex

and capture_body vmm ~resource ~regs ~layout ~read_page =
  check_layout layout;
  (* force every plaintext page to ciphertext: the blob must hold exactly
     what the OS is allowed to see *)
  Vmm.seal_resource vmm resource;
  let tag = Resource.tag resource in
  let entries =
    Vmm.fold_meta vmm resource (fun idx (e : Metadata.entry) acc -> (idx, e) :: acc) []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (* Read and authenticate every frame before the generation bump: hostile
     RAM may have torn or flipped a frame after the VMM encrypted it,
     leaving plaintext residue, and the checkpoint goes to OS-visible
     storage — so seal only authenticated bytes. Aborting here consumes no
     generation, so the supervisor's last good checkpoint stays fresh. *)
  let pages =
    List.map
      (fun (idx, (e : Metadata.entry)) ->
        let page cipher = { idx; version = e.version; iv = e.iv; mac = e.mac; cipher } in
        match e.state with
        | Metadata.Encrypted ->
            let cipher = read_page idx in
            if Bytes.length cipher <> Addr.page_size then
              invalid_arg "Seal.capture: read_page must return one full page";
            if not (Vmm.authenticate_cipher vmm resource idx e ~cipher) then
              Vmm.violate vmm ~resource Violation.Integrity
                "page %d of %s fails authentication at checkpoint capture (torn \
                 or tampered frame)"
                idx tag;
            page (Some cipher)
        | Zero -> page None
        | Plain _ ->
            (* unreachable after seal_resource unless the OS raced the VMM,
               which the model forbids *)
            invalid_arg "Seal.capture: plaintext page survived seal_resource")
      entries
  in
  (* write-ahead: the generation bump reaches the journal before the blob
     exists, so a crash can lose the new checkpoint but never unstale an
     old one *)
  let gen = Vmm.bump_seal_generation vmm ~tag in
  let body = encode { resource; gen; regs; layout; pages } in
  List.iter
    (fun p -> if p.cipher <> None then Vmm.charge_copy vmm ~bytes_count:Addr.page_size)
    pages;
  let blob = Bytes.cat body (Oscrypto.Hmac.mac ~key:(Vmm.seal_key vmm) body) in
  (Vmm.counters vmm).seal_checkpoints <- (Vmm.counters vmm).seal_checkpoints + 1;
  Inject.Audit.record (Vmm.audit vmm) "seal capture resource=%s gen=%d pages=%d" tag
    gen (List.length entries);
  (* hostile world: the checkpoint's trip to (OS-visible) storage may tear
     or flip bits — unseal must catch both *)
  Inject.corrupt (Inject.fire_opt (Vmm.engine vmm) Inject.Seal_write) blob

(* --- unseal --- *)

let rec unseal vmm blob =
  let tr = Vmm.trace vmm in
  Trace.span_enter tr ~ctx:Trace.Vmm Trace.Seal_restore;
  match unseal_body vmm blob with
  | r ->
      Trace.span_exit tr ~ctx:Trace.Vmm
        ~site:(if Trace.enabled tr then Resource.tag r.resource else "")
        ~aux:r.gen Trace.Seal_restore;
      r
  | exception ex ->
      (* forged/stale blobs unwind as violations mid-span *)
      Trace.span_abort tr Trace.Seal_restore;
      raise ex

and unseal_body vmm blob =
  (* hostile world: the blob may have been corrupted at rest *)
  let blob = Inject.corrupt (Inject.fire_opt (Vmm.engine vmm) Inject.Restore) blob in
  (* the whole blob is authenticated and parsed before any VMM state
     moves: a refused blob leaves the seal generations as they were *)
  let r =
    match Oscrypto.Wire.(let* c = authenticated ~key:(Vmm.seal_key vmm) blob in read c) with
    | Ok r -> r
    | Error (Malformed { offset; what }) ->
        Vmm.violate vmm Violation.Metadata_forged
          "sealed checkpoint refused at byte %d: %s" offset what
  in
  let tag = Resource.tag r.resource in
  (* freshness: the journal-anchored seal generation is the rollback
     horizon — any older blob authenticates fine and must still be
     refused *)
  let current = Vmm.seal_generation vmm ~tag in
  if r.gen < current then
    Vmm.violate vmm ~resource:r.resource Violation.Stale_checkpoint
      "sealed checkpoint for %s is stale (generation %d, latest sealed %d)" tag r.gen
      current;
  Vmm.restore_seal_generation vmm ~tag ~gen:r.gen;
  Inject.Audit.record (Vmm.audit vmm) "seal unseal resource=%s gen=%d pages=%d" tag
    r.gen (List.length r.pages);
  r

(* --- install --- *)

let install ?(consume = false) vmm restored ~write_page =
  List.iter
    (fun p ->
      match p.cipher with
      | None -> ()  (* Zero pages: fresh metadata entries already read as zero *)
      | Some cipher ->
          Vmm.restore_entry vmm ~resource:restored.resource ~idx:p.idx
            ~version:p.version ~iv:p.iv ~mac:p.mac;
          write_page p.idx cipher;
          Vmm.charge_copy vmm ~bytes_count:Addr.page_size)
    restored.pages;
  (Vmm.counters vmm).seal_restores <- (Vmm.counters vmm).seal_restores + 1;
  Inject.Audit.record (Vmm.audit vmm) "seal install resource=%s gen=%d pages=%d"
    (Resource.tag restored.resource) restored.gen (List.length restored.pages);
  (* single-use restore: retire the installed generation so a second
     delivery of the same blob — here or, via the journal, at a restarted
     VMM — raises Stale_checkpoint instead of resuming twice *)
  if consume then
    Vmm.retire_seal_generation vmm ~tag:(Resource.tag restored.resource)
      ~gen:restored.gen
