(* Trust-boundary decoding: the Wire reader's canonical forms, one
   mangling property over every format that crosses the boundary, and
   regressions for defects that property found.

   Each format is one table entry: a generator of valid bodies (what the
   MAC covers), the post-MAC parse re-encoded, how the body is wrapped to
   cross the boundary (MAC trailer, framing, store layout), and how the
   wrapped bytes are fed to the consumer. The property mangles a valid
   body (truncate, extend, bit-flip, splice two bodies, boundary ints)
   and requires: the parse refuses it or re-encodes to the same bytes;
   fed raw and re-MACed under the right key, the consumer never lets an
   exception escape, and a refusal leaves its state as it was. *)

open Cloak
module W = Oscrypto.Wire
module Gen = QCheck.Gen

let vconfig = { Vmm.default_config with seed = 0x3A1E; mem_pages = 64 }
let fresh_vmm () = Vmm.create ~config:vconfig ()

let mac_trailer key body = Bytes.cat body (Oscrypto.Hmac.mac ~key body)
let strip_mac w = Bytes.sub w 0 (Bytes.length w - 32)

(* The metadata-export MAC key is the VMM's root secret and has no
   accessor. [Vmm.create] draws it and the 16-byte page key as the
   seeded PRNG's first two draws, in an order the compiler picks; take
   the one that authenticates a real export. *)
let export_key =
  let vmm = fresh_vmm () in
  let blob = Vmm.export_metadata vmm (Vmm.fresh_shm vmm) ~pages:1 ~logical_size:0 in
  let draw ~skip =
    let prng = Oscrypto.Prng.create ~seed:vconfig.seed in
    ignore (Oscrypto.Prng.bytes prng skip);
    Oscrypto.Prng.bytes prng 32
  in
  match List.find_opt (fun key -> Bytes.equal blob (mac_trailer key (strip_mac blob)))
          [ draw ~skip:0; draw ~skip:16 ] with
  | Some key -> key
  | None -> failwith "no PRNG draw authenticates a metadata export"

let escaped e = Some ("escaped exception " ^ Printexc.to_string e)
let random_bytes n = Gen.map (fun s -> Oscrypto.Prng.bytes (Oscrypto.Prng.create ~seed:s) n) Gen.int
let any_int = Gen.oneof [ Gen.int; Gen.small_signed_int; Gen.oneofl [ 0; 1; -1; max_int; min_int ] ]

(* --- the Wire reader --- *)

let read_int s =
  let c = W.of_string s in
  match W.int c with Ok v when W.eof c = Ok () -> Some v | _ -> None

let test_canonical_decimal () =
  List.iter
    (fun v -> Alcotest.(check (option int)) (string_of_int v) (Some v) (read_int (string_of_int v)))
    [ 0; 1; -1; 42; -9000; max_int; min_int ];
  List.iter
    (fun s -> Alcotest.(check (option int)) (Printf.sprintf "%S refused" s) None (read_int s))
    [ ""; "-"; "+5"; "05"; "-0"; "0x10"; "1_0"; " 1"; "4611686018427387904";
      "-4611686018427387905"; "99999999999999999999" ];
  let c = W.of_string "12|x" in
  Alcotest.(check bool) "separator consumed" true (W.int ~sep:'|' c = Ok 12 && W.next_is c 'x');
  Alcotest.(check bool) "bounds" true (Result.is_error (W.int ~lo:13 (W.of_string "12")))

let test_canonical_hex () =
  let hex s = match W.hex_int (W.of_string s) ~width:(String.length s) with Ok v -> Some v | Error _ -> None in
  List.iter
    (fun v ->
      let s = Printf.sprintf "%016x" v in
      Alcotest.(check (option int)) s (Some v) (hex s))
    [ 0; 1; -1; max_int; min_int; 0xdeadbeef ];
  List.iter
    (fun s -> Alcotest.(check (option int)) (s ^ " refused") None (hex s))
    [ "8000000000000000"; "ffffffffffffffff"; "0000000A"; "000000g0"; "-0000001" ];
  Alcotest.(check bool) "bytes" true
    (W.hex_bytes (W.of_string "00ff10") 3 = Ok (Bytes.of_string "\000\255\016"))

(* --- mangling --- *)

type op =
  | Truncate of int         (* keep the first [n mod (len+1)] bytes *)
  | Extend of string
  | Flip of int * int       (* byte index (mod len), bit *)
  | Splice of int * int     (* this body's prefix, another body's suffix *)
  | Int_field of int * int  (* int field index (mod fields), boundary index *)

(* int fields set to 0, 1, -1, chunk-1, chunk, chunk+1 and max_int *)
let boundaries =
  let chunk = Migrate.default_chunk_size in
  [| 0; 1; -1; chunk - 1; chunk; chunk + 1; max_int |]

let op_gen =
  Gen.(
    frequency
      [
        (2, map (fun n -> Truncate n) nat);
        (1, map (fun s -> Extend s) (string_size (int_range 1 8)));
        (3, map2 (fun i b -> Flip (i, b)) nat (int_bound 7));
        (2, map2 (fun i j -> Splice (i, j)) nat nat);
        (4, map2 (fun i b -> Int_field (i, b)) nat (int_bound (Array.length boundaries - 1)));
      ])

let op_print = function
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Extend s -> Printf.sprintf "extend %S" s
  | Flip (i, b) -> Printf.sprintf "flip %d.%d" i b
  | Splice (i, j) -> Printf.sprintf "splice %d/%d" i j
  | Int_field (i, b) -> Printf.sprintf "int-field %d := %d" i boundaries.(b)

(* decimal int fields: maximal digit runs (with a leading '-') that sit
   between separators, not inside hex or raw bytes *)
let int_fields b =
  let n = Bytes.length b in
  let digit i = i < n && Bytes.get b i >= '0' && Bytes.get b i <= '9' in
  let sep i = i < 0 || i >= n || String.contains "|\n:," (Bytes.get b i) in
  let rec scan i acc =
    if i >= n then List.rev acc
    else if digit i then begin
      let j = ref i in
      while digit !j do incr j done;
      let start = if i > 0 && Bytes.get b (i - 1) = '-' then i - 1 else i in
      scan !j (if sep (start - 1) && sep !j then (start, !j - start) :: acc else acc)
    end
    else scan (i + 1) acc
  in
  scan 0 []

let apply op body other =
  let n = Bytes.length body in
  match op with
  | Truncate k -> Bytes.sub body 0 (k mod (n + 1))
  | Extend s -> Bytes.cat body (Bytes.of_string s)
  | Flip (i, bit) when n > 0 ->
      let b = Bytes.copy body in
      Bytes.set b (i mod n) (Char.chr (Char.code (Bytes.get b (i mod n)) lxor (1 lsl bit)));
      b
  | Flip _ -> body
  | Splice (i, j) ->
      let m = Bytes.length other in
      let i = i mod (n + 1) and j = j mod (m + 1) in
      Bytes.cat (Bytes.sub body 0 i) (Bytes.sub other j (m - j))
  | Int_field (k, v) -> (
      match int_fields body with
      | [] -> body
      | runs ->
          let start, len = List.nth runs (k mod List.length runs) in
          Bytes.concat Bytes.empty
            [ Bytes.sub body 0 start; Bytes.of_string (string_of_int boundaries.(v));
              Bytes.sub body (start + len) (n - start - len) ])

(* --- the table --- *)

type entry = {
  name : string;
  gen : bytes Gen.t;                (* a valid body *)
  reencode : bytes -> bytes option; (* the post-MAC parse, re-encoded; None = refused *)
  reframe : bytes -> bytes;         (* redo length fields, as the sender would *)
  wrap : bytes -> bytes;            (* a body as it crosses the boundary *)
  feed : bytes -> string option;    (* deliver wrapped bytes; Some failure *)
}

(* MIGF1 frames, delivered to a fresh receiver *)
let session = "wire-prop"
let mkey = Migrate.session_key (fresh_vmm ()) ~session
let mig_vmm = fresh_vmm ()

let frame_gen =
  Gen.(
    oneof
      [
        ( int_range 0 40 >>= fun nchunks ->
          (if nchunks = 0 then return 0 else int_range nchunks (nchunks * 512)) >>= fun blob_len ->
          map
            (fun d -> Migrate.Offer { nchunks; blob_len; digest = Oscrypto.Sha256.hex d })
            (random_bytes 32) );
        map2 (fun seq payload -> Migrate.Chunk { seq; payload }) (int_range 0 100)
          (int_range 0 600 >>= random_bytes);
        oneofl [ Migrate.Ready; Migrate.Commit; Migrate.Abort ];
        map (fun s -> Migrate.Ack s) any_int;
      ])

(* the header's payload length, recomputed: a mangled payload then
   reaches the receiver as a well-framed, validly MAC'd frame *)
let reframe_migf1 body =
  match Bytes.index_opt body '\n' with
  | None -> body
  | Some nl -> (
      let payload = Bytes.sub body (nl + 1) (Bytes.length body - nl - 1) in
      match String.split_on_char '|' (Bytes.sub_string body 0 nl) with
      | [ m; s; k; seq; _; tid ] ->
          let len = string_of_int (Bytes.length payload) in
          Bytes.cat (Bytes.of_string (String.concat "|" [ m; s; k; seq; len; tid ] ^ "\n")) payload
      | _ -> body)

let migf1 =
  {
    name = "MIGF1 frame";
    gen =
      Gen.map2
        (fun frame tid -> strip_mac (Migrate.encode ~key:mkey ~session ~tid frame))
        frame_gen any_int;
    reencode =
      (fun body ->
        match Migrate.decode_full ~key:mkey ~session (mac_trailer mkey body) with
        | Ok (frame, tid) -> Some (strip_mac (Migrate.encode ~key:mkey ~session ~tid frame))
        | Error _ -> None);
    reframe = reframe_migf1;
    wrap = mac_trailer mkey;
    feed =
      (fun wire ->
        let rcv = Migrate.receiver mig_vmm ~session in
        let snap () =
          Migrate.(progress rcv, blob rcv, committed rcv, aborted rcv, trace_id rcv)
        in
        let before = snap () in
        match Migrate.deliver rcv wire with
        | exception e -> escaped e
        | _ -> (
            (* a digest mismatch refuses the assembled stream, after an
               accepted OFFER; any other reject refuses the frame itself *)
            match Migrate.rejects rcv with
            | [] | [ Migrate.Digest_mismatch ] -> None
            | _ -> if snap () <> before then Some "refused frame changed the receiver" else None));
  }

(* sealed checkpoints, unsealed by a fresh VMM *)
let seal_key = Vmm.seal_key (fresh_vmm ())
let resources = Resource.[ Anon 0; Anon 1; Shm 2; Shm 3 ]

let seal_page_gen =
  Gen.(
    int_range 0 20 >>= fun idx ->
    oneof
      [
        return { Seal.idx; version = 0; iv = Bytes.empty; mac = Bytes.empty; cipher = None };
        ( triple any_int (random_bytes 16) (random_bytes 32) >>= fun (version, iv, mac) ->
          map
            (fun cipher -> { Seal.idx; version; iv; mac; cipher = Some cipher })
            (random_bytes Machine.Addr.page_size) );
      ])

let restored_gen =
  Gen.(
    oneofl resources >>= fun resource ->
    int_range 1 100 >>= fun gen ->
    triple any_int any_int (array_size (int_range 0 4) any_int) >>= fun (pc, sp, gp) ->
    string_size ~gen:(oneofl [ 'a'; 'z'; '0'; '9'; ';'; ','; ':'; '-'; '_' ]) (int_range 0 12)
    >>= fun layout ->
    map
      (fun pages -> { Seal.resource; gen; regs = { Transfer.pc; sp; gp }; layout; pages })
      (list_size (int_range 0 3) seal_page_gen))

let seal_blob =
  {
    name = "seal blob";
    gen = Gen.map Seal.encode restored_gen;
    reencode = (fun body -> Result.to_option (Result.map Seal.encode (Seal.decode body)));
    reframe = Fun.id;
    wrap = mac_trailer seal_key;
    feed =
      (fun blob ->
        let vmm = fresh_vmm () in
        let gens () = List.map (fun r -> Vmm.seal_generation vmm ~tag:(Resource.tag r)) resources in
        let before = gens () in
        match Seal.unseal vmm blob with
        | _ -> None
        | exception Violation.Security_fault _ ->
            if gens () <> before then Some "refused blob moved a seal generation" else None
        | exception e -> escaped e);
  }

(* metadata exports, imported by a VMM that already holds shm 0..2 *)
let export_page_gen =
  Gen.(
    option
      (map3 (fun version iv mac -> { Journal.version; iv; mac }) any_int (random_bytes 16)
         (random_bytes 32)))

let export_gen =
  Gen.(
    triple (int_range 0 2) any_int any_int >>= fun (id, generation, logical_size) ->
    map
      (fun pages -> Vmm.Export.encode { id; generation; logical_size; pages })
      (list_size (int_range 0 5) export_page_gen))

let metadata_of vmm =
  List.map
    (fun id ->
      Vmm.fold_meta vmm (Resource.Shm id)
        (fun idx (e : Metadata.entry) acc -> (idx, e.state, e.version, e.iv, e.mac) :: acc)
        []
      |> List.sort compare)
    [ 0; 1; 2 ]

let held =
  List.map
    (fun id ->
      mac_trailer export_key
        (Vmm.Export.encode
           {
             id;
             generation = min_int;
             logical_size = 1;
             pages =
               [ Some { Journal.version = 7; iv = Bytes.make 16 'i'; mac = Bytes.make 32 'm' }; None ];
           }))
    [ 0; 1; 2 ]

let metadata_export =
  {
    name = "Vmm metadata export";
    gen = export_gen;
    reencode =
      (fun body -> Result.to_option (Result.map Vmm.Export.encode (Vmm.Export.decode body)));
    reframe = Fun.id;
    wrap = mac_trailer export_key;
    feed =
      (fun blob ->
        let vmm = fresh_vmm () in
        List.iter (fun b -> ignore (Vmm.import_metadata vmm b)) held;
        let before = metadata_of vmm in
        match Vmm.import_metadata vmm blob with
        | _ -> None
        | exception Violation.Security_fault _ ->
            if metadata_of vmm <> before then Some "refused blob changed metadata" else None
        | exception e -> escaped e);
  }

(* Journal formats, fed through Journal.load. The store is what
   [Journal.attach] leaves on an empty one: epoch 1's superblock in
   block 1, its (empty) checkpoint in the slot-1 area, an empty log. *)
let jkey = Bytes.of_string "wire-test journal key"
let jblocks = 12
let jbs = 512
let ckpt_blocks = (jblocks - 2) / 4
let log_start = 2 + (2 * ckpt_blocks)

let jstore () =
  let blocks = Array.init jblocks (fun _ -> Bytes.make jbs '\000') in
  let store =
    {
      Journal.blocks = jblocks;
      block_size = jbs;
      read = (fun i -> Bytes.copy blocks.(i));
      write = (fun i b -> blocks.(i) <- Bytes.copy b);
    }
  in
  ignore (Journal.attach ~key:jkey store);
  (blocks, store)

(* lay [data] over blocks [first, first+n), zero-padding the rest *)
let put blocks ~first ~n data =
  for i = 0 to n - 1 do
    let blk = Bytes.make jbs '\000' in
    let off = i * jbs in
    if off < Bytes.length data then
      Bytes.blit data off blk 0 (min jbs (Bytes.length data - off));
    blocks.(first + i) <- blk
  done

let empty_state (st : Journal.state) =
  Hashtbl.(length st.pages + length st.binds + length st.inflight + length st.gens
           + length st.seals)
  = 0

let load_check store ok =
  match Journal.load ~key:jkey store with
  | exception e -> escaped e
  | r -> if ok r then None else Some "load left the epoch-1 state on a refusal"

let superblock =
  {
    name = "journal superblock";
    gen = Gen.(map2 (fun epoch len -> Journal.encode_superblock ~epoch ~len) (int_range 2 1000) nat);
    reencode =
      (fun body ->
        match Journal.decode_superblock body with
        | Ok (epoch, len) -> Some (Journal.encode_superblock ~epoch ~len)
        | Error _ -> None);
    reframe = Fun.id;
    wrap = mac_trailer jkey;
    feed =
      (fun data ->
        let blocks, store = jstore () in
        put blocks ~first:0 ~n:1 data;
        (* no checkpoint exists for any epoch but 1 *)
        load_check store (fun r -> r.Journal.repoch = 1 && empty_state r.rstate));
  }

let tag_gen = Gen.oneofl [ "anon:1"; "shm:2"; "shm:17" ]
let dev_gen = Gen.oneofl [ "disk"; "swap0" ]

let state_gen =
  Gen.(
    list_size (int_range 0 6)
      (oneof
         [
           map3
             (fun (tag, idx) version (iv, mac) st ->
               Hashtbl.replace st.Journal.pages (tag, idx) { Journal.version; iv; mac })
             (pair tag_gen (int_range 0 50)) any_int (pair (random_bytes 16) (random_bytes 32));
           map3
             (fun (tag, idx) (dev, block) committed st ->
               Hashtbl.replace (if committed then st.Journal.binds else st.inflight) (tag, idx)
                 { Journal.dev; block })
             (pair tag_gen (int_range 0 50)) (pair dev_gen (int_range 0 5000)) bool;
           map2 (fun id v st -> Hashtbl.replace st.Journal.gens id (v, v + 1, 3)) any_int any_int;
           map2 (fun tag gen st -> Hashtbl.replace st.Journal.seals tag gen) tag_gen any_int;
         ])
    >|= fun fills ->
    let st =
      Journal.
        {
          pages = Hashtbl.create 8;
          binds = Hashtbl.create 8;
          inflight = Hashtbl.create 8;
          gens = Hashtbl.create 8;
          seals = Hashtbl.create 8;
        }
    in
    List.iter (fun fill -> fill st) fills;
    st)

let checkpoint =
  {
    name = "journal checkpoint";
    gen = Gen.map (fun st -> Journal.encode_checkpoint st ~epoch:2) state_gen;
    reencode =
      (fun body ->
        Result.to_option
          (Result.map (Journal.encode_checkpoint ~epoch:2) (Journal.decode_checkpoint ~epoch:2 body)));
    reframe = Fun.id;
    wrap = mac_trailer jkey;
    feed =
      (fun data ->
        let blocks, store = jstore () in
        (* an authentic epoch-2 superblock naming this checkpoint *)
        put blocks ~first:0 ~n:1
          (mac_trailer jkey (Journal.encode_superblock ~epoch:2 ~len:(Bytes.length data)));
        put blocks ~first:2 ~n:ckpt_blocks data;
        load_check store (fun r ->
            r.Journal.repoch = 2 || (r.repoch = 1 && empty_state r.rstate)));
  }

let event_gen =
  Gen.(
    oneof
      [
        ( pair tag_gen (int_range 0 50) >>= fun (tag, idx) ->
          map3
            (fun version iv mac -> Journal.Update { tag; idx; version; iv; mac })
            any_int (random_bytes 16) (random_bytes 32) );
        map3
          (fun (tag, idx) (dev, block) intent ->
            if intent then Journal.Intent { tag; idx; dev; block }
            else Journal.Commit { tag; idx; dev; block })
          (pair tag_gen (int_range 0 50)) (pair dev_gen (int_range 0 5000)) bool;
        map2 (fun dev block -> Journal.Freed { dev; block }) dev_gen (int_range 0 5000);
        map2 (fun tag idx -> Journal.Dropped_page { tag; idx }) tag_gen (int_range 0 50);
        map (fun tag -> Journal.Dropped_resource { tag }) tag_gen;
        map3
          (fun id (gen, size) pages -> Journal.Generation { id; gen; size; pages })
          any_int (pair any_int any_int) (int_range 0 64);
        map2 (fun tag gen -> Journal.Seal { tag; gen }) tag_gen any_int;
      ])

(* a log record: 8-hex length, body, and the chain MAC from epoch 1's anchor *)
let frame_record body =
  let anchor = Oscrypto.Hmac.mac_string ~key:(Bytes.to_string jkey) "anchor|1" in
  Bytes.concat Bytes.empty
    [ Bytes.of_string (Printf.sprintf "%08x" (Bytes.length body)); body;
      Oscrypto.Hmac.mac ~key:jkey (Bytes.cat anchor body) ]

let log_record =
  {
    name = "journal log record";
    gen = Gen.map (fun ev -> Bytes.of_string (Journal.encode_event ev)) event_gen;
    reencode =
      (fun body ->
        match Journal.decode_event (Bytes.to_string body) with
        | Ok ev -> Some (Bytes.of_string (Journal.encode_event ev))
        | Error _ -> None);
    reframe = Fun.id;
    wrap = frame_record;
    feed =
      (fun data ->
        let blocks, store = jstore () in
        put blocks ~first:log_start ~n:(jblocks - log_start) data;
        load_check store (fun r ->
            r.Journal.repoch = 1 && (r.replayed = 1 || (r.replayed = 0 && empty_state r.rstate))));
  }

let table = [| migf1; seal_blob; metadata_export; superblock; checkpoint; log_record |]

(* --- the property --- *)

let case_gen =
  Gen.(
    int_bound (Array.length table - 1) >>= fun i ->
    map3 (fun a b ops -> (i, a, b, ops)) table.(i).gen table.(i).gen
      (list_size (int_range 1 3) op_gen))

let print_case (i, a, b, ops) =
  Printf.sprintf "%s [%s] body %S (splice partner %d bytes)" table.(i).name
    (String.concat "; " (List.map op_print ops))
    (let s = Bytes.to_string a in if String.length s > 200 then String.sub s 0 200 ^ "..." else s)
    (Bytes.length b)

let check_case (i, a, b, ops) =
  let e = table.(i) in
  let mangle start other = List.fold_left (fun acc op -> apply op acc other) start ops in
  let body = mangle a b in
  let post_mac body =
    [
      (match e.reencode body with
      | None -> None
      | Some b' when Bytes.equal b' body -> None
      | Some _ -> Some "mangled body decodes to a different encoding"
      | exception ex -> escaped ex);
      e.feed (e.wrap body);
    ]
  in
  let failures =
    List.filter_map Fun.id
      ((match e.reencode a with
       | Some a' when Bytes.equal a a' -> None
       | _ -> Some "a valid body does not round-trip")
       :: e.feed (mangle (e.wrap a) (e.wrap b))
       :: (post_mac body @ post_mac (e.reframe body)))
  in
  match failures with
  | [] -> true
  | f :: _ -> QCheck.Test.fail_reportf "%s: %s" e.name f

let prop_mangled_decode_or_refuse =
  QCheck.Test.make ~count:600 ~long_factor:10
    ~name:"mangled boundary input decodes identically or is refused, state intact"
    (QCheck.make ~print:print_case case_gen)
    check_case

(* --- regressions --- *)

let forged vmm f =
  match f vmm with
  | _ -> Alcotest.fail "accepted"
  | exception Violation.Security_fault v ->
      Alcotest.(check string) "refusal" "metadata-forged" (Violation.kind_to_string v.Violation.kind)

let test_seal_negative_page_count () =
  let vmm = fresh_vmm () in
  let blob = mac_trailer (Vmm.seal_key vmm) (Bytes.of_string "OVSCK1|anon:1|5|-1|0|0||ly\n") in
  forged vmm (fun vmm -> Seal.unseal vmm blob)

let test_seal_refusal_keeps_generation () =
  let vmm = fresh_vmm () in
  let body = Bytes.of_string ("OVSCK1|anon:1|7|1|0|0||ly\nE|0|1|" ^ String.make 32 'x' ^ "\n") in
  forged vmm (fun vmm -> Seal.unseal vmm (mac_trailer (Vmm.seal_key vmm) body));
  Alcotest.(check int) "seal generation unchanged" 0 (Vmm.seal_generation vmm ~tag:"anon:1")

let test_import_refusal_keeps_metadata () =
  let vmm = fresh_vmm () in
  List.iter (fun b -> ignore (Vmm.import_metadata vmm b)) held;
  let before = metadata_of vmm in
  (* a valid header, then a record with an unknown flag *)
  let body = Bytes.cat (Bytes.of_string "OVSHM1|shm:1|5|1|2\n") (Bytes.make 130 'Q') in
  forged vmm (fun vmm -> Vmm.import_metadata vmm (mac_trailer export_key body));
  Alcotest.(check bool) "metadata intact" true (metadata_of vmm = before)

let test_offer_bounds () =
  let vmm = fresh_vmm () in
  let key = Migrate.session_key vmm ~session in
  let deliver frame =
    let rcv = Migrate.receiver vmm ~session in
    ignore (Migrate.deliver rcv (Migrate.encode ~key ~session frame));
    (Migrate.rejects rcv, Migrate.progress rcv)
  in
  let offer nchunks blob_len = Migrate.Offer { nchunks; blob_len; digest = "d" } in
  let refused = ([ Migrate.Malformed ], (0, 0)) in
  Alcotest.(check bool) "nchunks = max_int over a small blob" true
    (deliver (offer max_int 100) = refused);
  Alcotest.(check bool) "chunks but no bytes" true (deliver (offer 1 0) = refused);
  Alcotest.(check bool) "bytes but no chunks" true (deliver (offer 0 1) = refused);
  Alcotest.(check bool) "a huge honest claim allocates nothing up front" true
    (deliver (offer max_int max_int) = ([], (0, max_int)))

let test_noncanonical_ack () =
  let body = Bytes.of_string "MIGF1|wire-prop|ack|0x10|0_0|+0\n" in
  Alcotest.(check bool) "hex seq refused" true
    (Migrate.decode ~key:mkey ~session (mac_trailer mkey body) = Error Migrate.Malformed)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "wire"
    [
      ("reader", [ quick "canonical decimal" test_canonical_decimal; quick "canonical hex" test_canonical_hex ]);
      ("decoders", [ Qseed.to_alcotest prop_mangled_decode_or_refuse ]);
      ( "regressions",
        [
          quick "seal npages = -1 is refused" test_seal_negative_page_count;
          quick "refused seal blob keeps the generation" test_seal_refusal_keeps_generation;
          quick "refused import keeps the metadata" test_import_refusal_keeps_metadata;
          quick "offer nchunks bounded by blob_len" test_offer_bounds;
          quick "non-canonical ack refused" test_noncanonical_ack;
        ] );
    ]
