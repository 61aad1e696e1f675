let block_size = 64

let normalize_key key =
  let key = if Bytes.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\000' in
  Bytes.blit key 0 padded 0 (Bytes.length key);
  padded

let xor_pad key pad = Bytes.map (fun c -> Char.chr (Char.code c lxor pad)) key

(* The MAC of the first [len] bytes of [message]. *)
let mac_prefix ~key message len =
  let key = normalize_key key in
  let inner = Sha256.init () in
  Sha256.feed inner (xor_pad key 0x36) ~pos:0 ~len:block_size;
  Sha256.feed inner message ~pos:0 ~len;
  let inner_digest = Sha256.finalize inner in
  let outer = Sha256.init () in
  Sha256.feed outer (xor_pad key 0x5C) ~pos:0 ~len:block_size;
  Sha256.feed outer inner_digest ~pos:0 ~len:32;
  Sha256.finalize outer

let mac ~key message = mac_prefix ~key message (Bytes.length message)
let mac_string ~key message = mac ~key:(Bytes.of_string key) (Bytes.of_string message)

(* Constant-shape comparison of [expected] against [buf] at [pos]. *)
let equal_at expected buf pos =
  let diff = ref 0 in
  Bytes.iteri
    (fun i c -> diff := !diff lor (Char.code c lxor Char.code (Bytes.get buf (pos + i))))
    expected;
  !diff = 0

let verify ~key ~tag message =
  Bytes.length tag = 32 && equal_at (mac ~key message) tag 0

let verify_trailer ~key buf ~len =
  len >= 0 && len + 32 <= Bytes.length buf && equal_at (mac_prefix ~key buf len) buf len
