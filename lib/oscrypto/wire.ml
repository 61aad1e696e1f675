(* Total reader for the trust-boundary formats. See wire.mli. *)

type error = Malformed of { offset : int; what : string }
type 'a r = ('a, error) result

type t = { buf : bytes; mutable pos : int; lim : int }

let of_bytes ?(pos = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then invalid_arg "Wire.of_bytes";
  { buf; pos; lim = pos + len }

let of_string s = of_bytes (Bytes.unsafe_of_string s)

let ( let* ) = Result.bind
let error offset what = Error (Malformed { offset; what })
let fail c what = error c.pos what
let remaining c = c.lim - c.pos

let authenticated ~key buf =
  let len = Bytes.length buf - 32 in
  if len < 0 then error 0 "truncated"
  else if Hmac.verify_trailer ~key buf ~len then Ok { buf; pos = 0; lim = len }
  else error len "fails authentication"

let literal c s =
  let n = String.length s in
  let i = ref 0 in
  if remaining c >= n then
    while !i < n && Bytes.get c.buf (c.pos + !i) = s.[!i] do
      incr i
    done;
  if !i = n then begin
    c.pos <- c.pos + n;
    Ok ()
  end
  else fail c s

let next_is c ch = c.pos < c.lim && Bytes.get c.buf c.pos = ch

let field c sep =
  let i = ref c.pos in
  while !i < c.lim && Bytes.get c.buf !i <> sep do
    incr i
  done;
  if !i >= c.lim then fail c "separator"
  else begin
    let s = Bytes.sub_string c.buf c.pos (!i - c.pos) in
    c.pos <- !i + 1;
    Ok s
  end

let in_range c ~lo ~hi ~start ~stop v =
  if v < lo || v > hi then error start "int out of range"
  else begin
    c.pos <- stop;
    Ok v
  end

let int ?(lo = min_int) ?(hi = max_int) ?sep c =
  let start = c.pos in
  let neg = next_is c '-' in
  let first = if neg then start + 1 else start in
  (* accumulate the negated value: min_int has no positive counterpart *)
  let i = ref first and acc = ref 0 and overflow = ref false in
  while !i < c.lim && Bytes.get c.buf !i >= '0' && Bytes.get c.buf !i <= '9' do
    let d = Char.code (Bytes.get c.buf !i) - Char.code '0' in
    if !acc < (min_int + d) / 10 then overflow := true else acc := (!acc * 10) - d;
    incr i
  done;
  let ndigits = !i - first in
  if
    ndigits = 0 || !overflow
    || (ndigits > 1 && Bytes.get c.buf first = '0')
    || (neg && !acc = 0)
    || ((not neg) && !acc = min_int)
  then error start "decimal"
  else
    let r = in_range c ~lo ~hi ~start ~stop:!i (if neg then !acc else - !acc) in
    match (r, sep) with
    | Ok _, Some s ->
        if next_is c s then begin
          c.pos <- c.pos + 1;
          r
        end
        else fail c (String.make 1 s)
    | _ -> r

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | _ -> -1

let hex_int ?(lo = min_int) ?(hi = max_int) c ~width =
  if width < 1 || width > 16 then invalid_arg "Wire.hex_int: width";
  let start = c.pos in
  if remaining c < width then error start "hex int"
  else begin
    let acc = ref 0 and ok = ref true in
    for i = start to start + width - 1 do
      let d = hex_digit (Bytes.get c.buf i) in
      if d < 0 then ok := false else acc := (!acc lsl 4) lor d
    done;
    (* an int holds 63 bits: a 64th would be dropped, and two encodings
       would decode to one value *)
    if (not !ok) || (width = 16 && hex_digit (Bytes.get c.buf start) > 7) then
      error start "hex int"
    else in_range c ~lo ~hi ~start ~stop:(start + width) !acc
  end

let hex_bytes c n =
  if n < 0 || remaining c < 2 * n then fail c "hex bytes"
  else begin
    let out = Bytes.create n in
    let ok = ref true in
    for i = 0 to n - 1 do
      let hi = hex_digit (Bytes.get c.buf (c.pos + (2 * i)))
      and lo = hex_digit (Bytes.get c.buf (c.pos + (2 * i) + 1)) in
      if hi < 0 || lo < 0 then ok := false
      else Bytes.unsafe_set out i (Char.unsafe_chr ((hi lsl 4) lor lo))
    done;
    if !ok then begin
      c.pos <- c.pos + (2 * n);
      Ok out
    end
    else fail c "hex bytes"
  end

let raw c n =
  if n < 0 || remaining c < n then fail c "bytes"
  else begin
    let out = Bytes.sub c.buf c.pos n in
    c.pos <- c.pos + n;
    Ok out
  end

let count n read c =
  let rec go n acc =
    if n <= 0 then Ok (List.rev acc)
    else
      let* x = read c in
      go (n - 1) (x :: acc)
  in
  go n []

let eof c = if c.pos = c.lim then Ok () else fail c "end of input"
