(* Crypto substrate tests: FIPS/NIST vectors pin the from-scratch
   implementations; property tests cover the algebraic laws the cloaking
   engine relies on (CTR involution, incremental = one-shot hashing). *)

open Oscrypto

let hex_to_bytes s =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let check_hex = Alcotest.(check string)

(* --- SHA-256 --- *)

let test_sha_abc () =
  check_hex "sha256(abc)"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex (Sha256.digest_string "abc"))

let test_sha_empty () =
  check_hex "sha256(empty)"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex (Sha256.digest_string ""))

let test_sha_two_blocks () =
  check_hex "sha256(56 chars)"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))

let test_sha_million_a () =
  let t = Sha256.init () in
  let chunk = Bytes.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.feed t chunk ~pos:0 ~len:1000
  done;
  check_hex "sha256(a * 1e6)"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (Sha256.finalize t))

let test_sha_length_boundaries () =
  (* Exercise the padding logic at every length around the 64-byte block
     boundary: incremental must equal one-shot. *)
  for len = 50 to 70 do
    let data = Bytes.init len (fun i -> Char.chr (i land 0xFF)) in
    let t = Sha256.init () in
    Sha256.feed t data ~pos:0 ~len:(len / 2);
    Sha256.feed t data ~pos:(len / 2) ~len:(len - (len / 2));
    check_hex
      (Printf.sprintf "boundary len=%d" len)
      (Sha256.hex (Sha256.digest data))
      (Sha256.hex (Sha256.finalize t))
  done

(* --- AES --- *)

let test_aes_fips197 () =
  let key = Aes.expand (hex_to_bytes "000102030405060708090a0b0c0d0e0f") in
  check_hex "fips-197 appendix B"
    "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Sha256.hex (Aes.encrypt_block key (hex_to_bytes "00112233445566778899aabbccddeeff")))

let test_aes_sp800_38a_ecb () =
  let key = Aes.expand (hex_to_bytes "2b7e151628aed2a6abf7158809cf4f3c") in
  check_hex "sp800-38a ecb block 1"
    "3ad77bb40d7a3660a89ecaf32466ef97"
    (Sha256.hex (Aes.encrypt_block key (hex_to_bytes "6bc1bee22e409f96e93d7e117393172a")))

let sp800_38a_key = "2b7e151628aed2a6abf7158809cf4f3c"
let sp800_38a_iv = "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"

let test_aes_ctr_sp800_38a () =
  (* F.5.1 CTR-AES128.Encrypt, all four blocks: the counter's low bytes
     carry from 0xff to 0x00 between blocks 1 and 2. *)
  let key = Aes.expand (hex_to_bytes sp800_38a_key) in
  let iv = hex_to_bytes sp800_38a_iv in
  let plain =
    "6bc1bee22e409f96e93d7e117393172a" ^ "ae2d8a571e03ac9c9eb76fac45af8e51"
    ^ "30c81c46a35ce411e5fbc1191a0a52ef" ^ "f69f2445df4f9b17ad2b417be66c3710"
  in
  let cipher =
    "874d6191b620e3261bef6864990db6ce" ^ "9806f66b7970fdff8617187bb9fffdff"
    ^ "5ae4df3edbd5d35e5b4f09020db03eab" ^ "1e031dda2fbe03d1792170a0f3009cee"
  in
  check_hex "sp800-38a ctr blocks 1-4" cipher
    (Sha256.hex (Aes.ctr_transform key ~iv (hex_to_bytes plain)));
  check_hex "sp800-38a ctr decrypt" plain
    (Sha256.hex (Aes.ctr_transform key ~iv (hex_to_bytes cipher)))

let test_aes_ctr_empty () =
  let key = Aes.expand (hex_to_bytes sp800_38a_key) in
  let out = Aes.ctr_transform key ~iv:(hex_to_bytes sp800_38a_iv) Bytes.empty in
  Alcotest.(check int) "empty in, empty out" 0 (Bytes.length out)

let test_aes_ctr_allocation () =
  (* One 4 KiB page may allocate its output and a small constant, never
     anything per block or per round (256 blocks, 2560 rounds). *)
  let key = Aes.expand (hex_to_bytes sp800_38a_key) in
  let iv = hex_to_bytes sp800_38a_iv in
  let page = Bytes.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  ignore (Aes.ctr_transform key ~iv page);
  let before = Gc.allocated_bytes () in
  let out = Aes.ctr_transform key ~iv page in
  let after = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity out);
  let extra = after -. before -. 4096. in
  if extra > 1024. then
    Alcotest.failf "ctr_transform of 4096 bytes allocated %.0f bytes beyond its output" extra

let test_aes_bad_lengths () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes.expand: key must be 16 bytes")
    (fun () -> ignore (Aes.expand (Bytes.create 15)));
  let key = Aes.expand (Bytes.create 16) in
  Alcotest.check_raises "short block"
    (Invalid_argument "Aes.encrypt_block: block must be 16 bytes")
    (fun () -> ignore (Aes.encrypt_block key (Bytes.create 8)));
  Alcotest.check_raises "short iv"
    (Invalid_argument "Aes.ctr_transform: iv must be 16 bytes")
    (fun () -> ignore (Aes.ctr_transform key ~iv:(Bytes.create 8) (Bytes.create 4)))

(* --- HMAC --- *)

let test_hmac_rfc4231_case2 () =
  check_hex "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.hex (Hmac.mac_string ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_long_key () =
  (* Keys longer than the block size must be hashed first; check the code
     path by comparing against feeding the pre-hashed key directly. *)
  let long_key = Bytes.make 100 '\x0b' in
  let message = Bytes.of_string "message" in
  let direct = Hmac.mac ~key:long_key message in
  let via_hash = Hmac.mac ~key:(Sha256.digest long_key) message in
  check_hex "long key = hashed key" (Sha256.hex via_hash) (Sha256.hex direct)

let test_hmac_verify () =
  let key = Bytes.of_string "page-metadata-key" in
  let message = Bytes.of_string "resource 7 page 3 version 9" in
  let tag = Hmac.mac ~key message in
  Alcotest.(check bool) "accepts valid" true (Hmac.verify ~key ~tag message);
  Bytes.set tag 0 (Char.chr (Char.code (Bytes.get tag 0) lxor 1));
  Alcotest.(check bool) "rejects forged" false (Hmac.verify ~key ~tag message);
  Alcotest.(check bool) "rejects truncated" false
    (Hmac.verify ~key ~tag:(Bytes.sub tag 0 16) message)

(* --- PRNG --- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_bytes_len () =
  let p = Prng.create ~seed:7 in
  List.iter
    (fun n -> Alcotest.(check int) "length" n (Bytes.length (Prng.bytes p n)))
    [ 0; 1; 7; 8; 9; 16; 4096 ]

(* --- Properties ---

   Every property draws from its own generator state seeded with [seed],
   which is printed at start-up, so any failure replays exactly. *)

let seed = 0x05ad0c12

let to_alcotest test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test

let bytes_gen = QCheck.Gen.(map Bytes.of_string (string_size (int_range 0 512)))
let bytes_arb = QCheck.make ~print:(fun b -> Sha256.hex b) bytes_gen

let prop_ctr_involution =
  QCheck.Test.make ~name:"ctr twice is identity" ~count:200
    (QCheck.triple bytes_arb QCheck.small_int QCheck.small_int)
    (fun (data, key_seed, iv_seed) ->
      let p = Prng.create ~seed:(key_seed + 1) in
      let key = Aes.expand (Prng.bytes p 16) in
      let q = Prng.create ~seed:(iv_seed + 1) in
      let iv = Prng.bytes q 16 in
      Bytes.equal data (Aes.ctr_transform key ~iv (Aes.ctr_transform key ~iv data)))

let prop_ctr_changes_data =
  QCheck.Test.make ~name:"ctr output differs from plaintext (len >= 16)" ~count:100
    QCheck.small_int
    (fun seed ->
      let p = Prng.create ~seed:(seed + 1) in
      let data = Prng.bytes p 64 in
      let key = Aes.expand (Prng.bytes p 16) in
      let iv = Prng.bytes p 16 in
      not (Bytes.equal data (Aes.ctr_transform key ~iv data)))

let prop_sha_incremental =
  QCheck.Test.make ~name:"incremental sha = one-shot" ~count:200
    (QCheck.pair bytes_arb (QCheck.int_range 0 100))
    (fun (data, cut) ->
      let cut = min cut (Bytes.length data) in
      let t = Sha256.init () in
      Sha256.feed t data ~pos:0 ~len:cut;
      Sha256.feed t data ~pos:cut ~len:(Bytes.length data - cut);
      Bytes.equal (Sha256.finalize t) (Sha256.digest data))

let prop_distinct_iv_distinct_ct =
  QCheck.Test.make ~name:"distinct IVs give distinct ciphertexts" ~count:100
    QCheck.small_int
    (fun seed ->
      let p = Prng.create ~seed:(seed + 1) in
      let key = Aes.expand (Prng.bytes p 16) in
      let data = Prng.bytes p 32 in
      let iv1 = Prng.bytes p 16 and iv2 = Prng.bytes p 16 in
      Bytes.equal iv1 iv2
      || not (Bytes.equal (Aes.ctr_transform key ~iv:iv1 data) (Aes.ctr_transform key ~iv:iv2 data)))

(* The table-driven cipher must agree byte for byte with the bit-serial
   reference in [Aes_ref] on random keys, lengths (partial tail blocks
   included) and IVs; half the IVs start the big-endian counter word within
   16 of 2^32 so the wrap to 0 falls inside the buffer. *)
let fixed_bytes n = QCheck.Gen.(map Bytes.of_string (string_size (return n)))

let ctr_case_gen =
  let open QCheck.Gen in
  let counter =
    frequency [ (1, int_range 0xFFFFFFF0 0xFFFFFFFF); (1, map (fun x -> x land 0xFFFFFFFF) int) ]
  in
  quad (fixed_bytes 16) (fixed_bytes 12) counter
    (map Bytes.of_string (string_size (int_range 0 4200)))

let make_iv prefix counter =
  let iv = Bytes.create 16 in
  Bytes.blit prefix 0 iv 0 12;
  Bytes.set_int32_be iv 12 (Int32.of_int counter);
  iv

let prop_ctr_matches_reference =
  QCheck.Test.make ~name:"ctr_transform = bit-serial reference" ~count:200
    (QCheck.make
       ~print:(fun (key, prefix, counter, data) ->
         Printf.sprintf "key=%s iv=%s len=%d" (Sha256.hex key)
           (Sha256.hex (make_iv prefix counter)) (Bytes.length data))
       ctr_case_gen)
    (fun (key, prefix, counter, data) ->
      let iv = make_iv prefix counter in
      Bytes.equal
        (Aes.ctr_transform (Aes.expand key) ~iv data)
        (Aes_ref.ctr_transform (Aes_ref.expand key) ~iv data))

let prop_block_matches_reference =
  QCheck.Test.make ~name:"encrypt_block = bit-serial reference" ~count:500
    (QCheck.make
       ~print:(fun (key, block) -> Printf.sprintf "key=%s block=%s" (Sha256.hex key) (Sha256.hex block))
       QCheck.Gen.(pair (fixed_bytes 16) (fixed_bytes 16)))
    (fun (key, block) ->
      Bytes.equal
        (Aes.encrypt_block (Aes.expand key) block)
        (Aes_ref.encrypt_block (Aes_ref.expand key) block))

let () =
  Printf.printf "oscrypto qcheck seed: %d\n%!" seed;
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "oscrypto"
    [
      ( "sha256",
        [
          quick "abc" test_sha_abc;
          quick "empty" test_sha_empty;
          quick "two blocks" test_sha_two_blocks;
          quick "million a (slow path)" test_sha_million_a;
          quick "padding boundaries" test_sha_length_boundaries;
        ] );
      ( "aes",
        [
          quick "fips-197" test_aes_fips197;
          quick "sp800-38a ecb" test_aes_sp800_38a_ecb;
          quick "sp800-38a ctr" test_aes_ctr_sp800_38a;
          quick "ctr empty input" test_aes_ctr_empty;
          quick "ctr allocation per page" test_aes_ctr_allocation;
          quick "length validation" test_aes_bad_lengths;
        ] );
      ( "hmac",
        [
          quick "rfc4231 case 2" test_hmac_rfc4231_case2;
          quick "long key" test_hmac_long_key;
          quick "verify" test_hmac_verify;
        ] );
      ( "prng",
        [
          quick "deterministic" test_prng_deterministic;
          quick "bytes length" test_prng_bytes_len;
        ] );
      ( "properties",
        List.map to_alcotest
          [
            prop_ctr_involution;
            prop_ctr_changes_data;
            prop_sha_incremental;
            prop_distinct_iv_distinct_ct;
            prop_ctr_matches_reference;
            prop_block_matches_reference;
          ] );
    ]
