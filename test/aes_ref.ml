(* Reference AES-128 for the differential tests: the straightforward
   bit-serial cipher that [Oscrypto.Aes] replaced, kept only here. It
   follows FIPS-197 step by step (SubBytes, ShiftRows, MixColumns,
   AddRoundKey on a 16-byte state, [gf_mul] by shift-and-add), so it is
   easy to check by eye and slow. The S-box is derived from its
   definition rather than transcribed. *)

let gf_mul a b =
  let rec loop a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 = 1 then acc lxor a else acc in
      let a = if a land 0x80 <> 0 then ((a lsl 1) lxor 0x11B) land 0xFF else (a lsl 1) land 0xFF in
      loop a (b lsr 1) acc
  in
  loop a b 0

let gf_inverse x =
  (* x^254 in GF(2^8): the multiplicative inverse for x <> 0. *)
  if x = 0 then 0
  else
    let rec pow base exp acc =
      if exp = 0 then acc
      else
        let acc = if exp land 1 = 1 then gf_mul acc base else acc in
        pow (gf_mul base base) (exp lsr 1) acc
    in
    pow x 254 1

let sbox =
  let rotl8 b n = ((b lsl n) lor (b lsr (8 - n))) land 0xFF in
  Array.init 256 (fun x ->
      let b = gf_inverse x in
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)

type key = int array array
(* 11 round keys of 16 bytes each. *)

let expand raw =
  if Bytes.length raw <> 16 then invalid_arg "Aes.expand: key must be 16 bytes";
  (* 44 words of the AES-128 schedule, then regrouped per round. *)
  let words = Array.make 44 [| 0; 0; 0; 0 |] in
  for i = 0 to 3 do
    words.(i) <-
      Array.init 4 (fun j -> Char.code (Bytes.get raw ((4 * i) + j)))
  done;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let prev = words.(i - 1) in
    let temp =
      if i mod 4 = 0 then begin
        let rotated = [| prev.(1); prev.(2); prev.(3); prev.(0) |] in
        let substituted = Array.map (fun b -> sbox.(b)) rotated in
        substituted.(0) <- substituted.(0) lxor !rcon;
        rcon := gf_mul !rcon 2;
        substituted
      end
      else Array.copy prev
    in
    words.(i) <- Array.init 4 (fun j -> words.(i - 4).(j) lxor temp.(j))
  done;
  Array.init 11 (fun round ->
      Array.init 16 (fun b -> words.((4 * round) + (b / 4)).(b mod 4)))

let add_round_key state rk = Array.iteri (fun i v -> state.(i) <- v lxor rk.(i)) state

let sub_bytes state = Array.iteri (fun i v -> state.(i) <- sbox.(v)) state

(* State layout: byte [r + 4c] of the flat array is row r, column c, matching
   the FIPS column-major convention for a 16-byte input block. *)
let shift_rows state =
  let original = Array.copy state in
  for r = 1 to 3 do
    for c = 0 to 3 do
      state.(r + (4 * c)) <- original.(r + (4 * ((c + r) mod 4)))
    done
  done

let mix_columns state =
  for c = 0 to 3 do
    let a0 = state.(4 * c) and a1 = state.((4 * c) + 1)
    and a2 = state.((4 * c) + 2) and a3 = state.((4 * c) + 3) in
    state.(4 * c) <- gf_mul a0 2 lxor gf_mul a1 3 lxor a2 lxor a3;
    state.((4 * c) + 1) <- a0 lxor gf_mul a1 2 lxor gf_mul a2 3 lxor a3;
    state.((4 * c) + 2) <- a0 lxor a1 lxor gf_mul a2 2 lxor gf_mul a3 3;
    state.((4 * c) + 3) <- gf_mul a0 3 lxor a1 lxor a2 lxor gf_mul a3 2
  done

let encrypt_state key state =
  add_round_key state key.(0);
  for round = 1 to 9 do
    sub_bytes state;
    shift_rows state;
    mix_columns state;
    add_round_key state key.(round)
  done;
  sub_bytes state;
  shift_rows state;
  add_round_key state key.(10)

let encrypt_block key input =
  if Bytes.length input <> 16 then invalid_arg "Aes.encrypt_block: block must be 16 bytes";
  let state = Array.init 16 (fun i -> Char.code (Bytes.get input i)) in
  encrypt_state key state;
  let out = Bytes.create 16 in
  Array.iteri (fun i v -> Bytes.set out i (Char.chr v)) state;
  out

let ctr_transform key ~iv data =
  if Bytes.length iv <> 16 then invalid_arg "Aes.ctr_transform: iv must be 16 bytes";
  let len = Bytes.length data in
  let out = Bytes.create len in
  let counter_base =
    (Char.code (Bytes.get iv 12) lsl 24)
    lor (Char.code (Bytes.get iv 13) lsl 16)
    lor (Char.code (Bytes.get iv 14) lsl 8)
    lor Char.code (Bytes.get iv 15)
  in
  let block = Array.make 16 0 in
  let blocks = (len + 15) / 16 in
  for i = 0 to blocks - 1 do
    for j = 0 to 11 do
      block.(j) <- Char.code (Bytes.get iv j)
    done;
    let counter = (counter_base + i) land 0xFFFFFFFF in
    block.(12) <- (counter lsr 24) land 0xFF;
    block.(13) <- (counter lsr 16) land 0xFF;
    block.(14) <- (counter lsr 8) land 0xFF;
    block.(15) <- counter land 0xFF;
    encrypt_state key block;
    let offset = 16 * i in
    let chunk = min 16 (len - offset) in
    for j = 0 to chunk - 1 do
      Bytes.set out (offset + j)
        (Char.chr (Char.code (Bytes.get data (offset + j)) lxor block.(j)))
    done
  done;
  out
