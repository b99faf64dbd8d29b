exception Out_of_bounds of string

module Reader = struct
  type t = { buf : bytes; limit : int; mutable pos : int; start : int; tail : int }

  let of_bytes ?(off = 0) ?len ?(tail = 0) buf =
    let len = match len with Some l -> l | None -> Bytes.length buf - off in
    if off < 0 || len < 0 || off + len > Bytes.length buf then
      invalid_arg "Cursor.Reader.of_bytes: bad window";
    if tail < 0 then invalid_arg "Cursor.Reader.of_bytes: negative tail";
    { buf; limit = off + len; pos = off; start = off; tail }

  let remaining t = t.limit - t.pos + t.tail
  let position t = t.pos - t.start

  (* Reads are bounded by the real bytes: the tail only counts. *)
  let need t n what =
    if t.limit - t.pos < n then
      raise
        (Out_of_bounds
           (Printf.sprintf "read %s: need %d, have %d" what n (t.limit - t.pos)))

  let u8 t =
    need t 1 "u8";
    let v = Char.code (Bytes.get t.buf t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2 "u16";
    let v = Bytes.get_uint16_be t.buf t.pos in
    t.pos <- t.pos + 2;
    v

  let u24 t =
    need t 3 "u24";
    let high = Char.code (Bytes.get t.buf t.pos) in
    let low = Bytes.get_uint16_be t.buf (t.pos + 1) in
    t.pos <- t.pos + 3;
    (high lsl 16) lor low

  let u32 t =
    need t 4 "u32";
    let v = Bytes.get_int32_be t.buf t.pos in
    t.pos <- t.pos + 4;
    v

  let u32_int t = Int32.to_int (u32 t) land 0xFFFFFFFF

  let u64 t =
    need t 8 "u64";
    let v = Bytes.get_int64_be t.buf t.pos in
    t.pos <- t.pos + 8;
    v

  let take t n =
    need t n "take";
    let out = Bytes.sub t.buf t.pos n in
    t.pos <- t.pos + n;
    out

  let skip t n =
    need t n "skip";
    t.pos <- t.pos + n

  let rest t = take t (t.limit - t.pos)
end

module Writer = struct
  type t = { buf : bytes; start : int; mutable pos : int }

  let create capacity = { buf = Bytes.create capacity; start = 0; pos = 0 }

  (* Write into a caller-owned buffer (e.g. a pool frame) from [off]
     instead of a fresh one; bounds-checked against its full length. *)
  let over ?(off = 0) buf =
    if off < 0 || off > Bytes.length buf then
      invalid_arg "Cursor.Writer.over: bad offset";
    { buf; start = off; pos = off }

  let length t = t.pos - t.start

  let need t n what =
    if t.pos + n > Bytes.length t.buf then
      raise
        (Out_of_bounds
           (Printf.sprintf "write %s: need %d, capacity left %d" what n
              (Bytes.length t.buf - t.pos)))

  let u8 t v =
    need t 1 "u8";
    Bytes.set t.buf t.pos (Char.chr (v land 0xFF));
    t.pos <- t.pos + 1

  let u16 t v =
    need t 2 "u16";
    Bytes.set_uint16_be t.buf t.pos (v land 0xFFFF);
    t.pos <- t.pos + 2

  let u24 t v =
    need t 3 "u24";
    Bytes.set t.buf t.pos (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set_uint16_be t.buf (t.pos + 1) (v land 0xFFFF);
    t.pos <- t.pos + 3

  let u32 t v =
    need t 4 "u32";
    Bytes.set_int32_be t.buf t.pos v;
    t.pos <- t.pos + 4

  let u32_int t v = u32 t (Int32.of_int (v land 0xFFFFFFFF))

  let u64 t v =
    need t 8 "u64";
    Bytes.set_int64_be t.buf t.pos v;
    t.pos <- t.pos + 8

  let bytes t b =
    let n = Bytes.length b in
    need t n "bytes";
    Bytes.blit b 0 t.buf t.pos n;
    t.pos <- t.pos + n

  let contents t = Bytes.sub t.buf t.start (length t)

  let writes_exactly t n write =
    let start = t.pos in
    match write t with
    | () -> t.pos - start = n
    | exception Out_of_bounds _ -> false
end

let checksum buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Cursor.checksum: bad window";
  let sum = ref 0 in
  let i = ref off in
  let last = off + len in
  while !i + 1 < last do
    sum := !sum + Bytes.get_uint16_be buf !i;
    i := !i + 2
  done;
  if !i < last then sum := !sum + (Char.code (Bytes.get buf !i) lsl 8);
  let folded = ref !sum in
  while !folded > 0xFFFF do
    folded := (!folded land 0xFFFF) + (!folded lsr 16)
  done;
  lnot !folded land 0xFFFF
