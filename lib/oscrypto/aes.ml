(* AES-128, table-driven. The S-box is derived from its definition
   (multiplicative inverse in GF(2^8) followed by the affine transform)
   rather than transcribed, and the four T-tables are derived from the
   S-box in turn, so no table in this file is typed in; the FIPS-197 and
   SP 800-38A vectors in the test suite pin the result.

   The state is four big-endian 32-bit column words held in OCaml ints
   (byte 0 of a column, row 0, is the top byte). A T-table entry folds
   SubBytes and MixColumns for one byte position: [te0.(x)] is the column
   (2·S(x), S(x), S(x), 3·S(x)), and [te1..te3] are its byte rotations.
   ShiftRows is the choice of which column feeds each table. Encryption
   allocates nothing per block or per round; [ctr_transform] allocates
   only its output buffer (plus 16 bytes when the input ends in a partial
   block).

   T-table lookups are indexed by secret state, so this cipher is not
   constant-time against cache timing on the host. The simulated guest
   cannot observe host caches (see DESIGN.md); a real VMM would use
   AES-NI. *)

let mask32 = 0xFFFFFFFF

let xtime b = if b land 0x80 <> 0 then ((b lsl 1) lxor 0x11B) land 0xFF else b lsl 1

let gf_mul a b =
  let rec loop a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 = 1 then acc lxor a else acc in
      loop (xtime a) (b lsr 1) acc
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

let rotr8 w = ((w lsr 8) lor (w lsl 24)) land mask32

let te0 =
  Array.init 256 (fun x ->
      let s = sbox.(x) in
      let s2 = xtime s in
      (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor (s2 lxor s))

let te1 = Array.map rotr8 te0
let te2 = Array.map rotr8 te1
let te3 = Array.map rotr8 te2

(* Row r of the result is the S-box image of row r of the r-th argument:
   SubBytes, with ShiftRows when the arguments are successive columns. *)
let sbox_column a0 a1 a2 a3 =
  (sbox.(a0 lsr 24) lsl 24)
  lor (sbox.((a1 lsr 16) land 0xFF) lsl 16)
  lor (sbox.((a2 lsr 8) land 0xFF) lsl 8)
  lor sbox.(a3 land 0xFF)

type key = int array
(* The 44 words of the AES-128 schedule; round r uses words 4r..4r+3. *)

let get_word b off = Int32.to_int (Bytes.get_int32_be b off) land mask32
let set_word b off w = Bytes.set_int32_be b off (Int32.of_int w)
let xor_word b off w = set_word b off (get_word b off lxor w)

let expand raw =
  if Bytes.length raw <> 16 then invalid_arg "Aes.expand: key must be 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- get_word raw (4 * i)
  done;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let prev = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then begin
        (* RotWord, SubWord, then Rcon into the top byte. *)
        let rot = ((prev lsl 8) lor (prev lsr 24)) land mask32 in
        let t = sbox_column rot rot rot rot lxor (!rcon lsl 24) in
        rcon := xtime !rcon;
        t
      end
      else prev
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  w

(* Encrypt the column words [x0..x3] under [rk] and XOR the 16-byte result
   into [buf] at [off]. *)
let encrypt_xor_into rk x0 x1 x2 x3 buf off =
  let s0 = ref (x0 lxor rk.(0)) and s1 = ref (x1 lxor rk.(1))
  and s2 = ref (x2 lxor rk.(2)) and s3 = ref (x3 lxor rk.(3)) in
  for round = 1 to 9 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and k = 4 * round in
    s0 :=
      te0.(a0 lsr 24) lxor te1.((a1 lsr 16) land 0xFF) lxor te2.((a2 lsr 8) land 0xFF)
      lxor te3.(a3 land 0xFF) lxor rk.(k);
    s1 :=
      te0.(a1 lsr 24) lxor te1.((a2 lsr 16) land 0xFF) lxor te2.((a3 lsr 8) land 0xFF)
      lxor te3.(a0 land 0xFF) lxor rk.(k + 1);
    s2 :=
      te0.(a2 lsr 24) lxor te1.((a3 lsr 16) land 0xFF) lxor te2.((a0 lsr 8) land 0xFF)
      lxor te3.(a1 land 0xFF) lxor rk.(k + 2);
    s3 :=
      te0.(a3 lsr 24) lxor te1.((a0 lsr 16) land 0xFF) lxor te2.((a1 lsr 8) land 0xFF)
      lxor te3.(a2 land 0xFF) lxor rk.(k + 3)
  done;
  (* Final round: no MixColumns, so the S-box directly. *)
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  xor_word buf off (sbox_column a0 a1 a2 a3 lxor rk.(40));
  xor_word buf (off + 4) (sbox_column a1 a2 a3 a0 lxor rk.(41));
  xor_word buf (off + 8) (sbox_column a2 a3 a0 a1 lxor rk.(42));
  xor_word buf (off + 12) (sbox_column a3 a0 a1 a2 lxor rk.(43))

let encrypt_block key input =
  if Bytes.length input <> 16 then invalid_arg "Aes.encrypt_block: block must be 16 bytes";
  let out = Bytes.make 16 '\000' in
  encrypt_xor_into key (get_word input 0) (get_word input 4) (get_word input 8)
    (get_word input 12) out 0;
  out

let ctr_transform key ~iv data =
  if Bytes.length iv <> 16 then invalid_arg "Aes.ctr_transform: iv must be 16 bytes";
  let len = Bytes.length data in
  let out = Bytes.copy data in
  let iv0 = get_word iv 0 and iv1 = get_word iv 4 and iv2 = get_word iv 8 in
  let counter_base = get_word iv 12 in
  let full = len / 16 in
  for i = 0 to full - 1 do
    encrypt_xor_into key iv0 iv1 iv2 ((counter_base + i) land mask32) out (16 * i)
  done;
  let tail = len - (16 * full) in
  if tail > 0 then begin
    let ks = Bytes.make 16 '\000' in
    encrypt_xor_into key iv0 iv1 iv2 ((counter_base + full) land mask32) ks 0;
    let offset = 16 * full in
    for j = 0 to tail - 1 do
      Bytes.set out (offset + j)
        (Char.chr (Char.code (Bytes.get out (offset + j)) lxor Char.code (Bytes.get ks j)))
    done
  end;
  out
