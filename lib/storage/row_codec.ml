(** Serialization of tuples to byte records and back.

    Records stored in pages are byte strings; storage managers need not
    know anything about values.  Two codecs are provided:

    - the {e variable-length} codec, a tagged encoding handling any value;
    - the {e fixed-length} codec, used by the fixed-length storage-manager
      extension (section 1 of the paper: "a new storage manager which
      handles fixed-length records only -- but extremely efficiently").
      It supports INT / FLOAT / BOOL columns and nulls via a bitmap, and
      yields records of a width computable from the schema alone. *)

let buf_add_int64 buf (x : int64) =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.shift_right_logical x (i * 8)) land 0xff))
  done

let buf_add_varint buf (x : int) =
  (* LEB128-ish, for non-negative lengths *)
  let rec go x =
    if x < 0x80 then Buffer.add_char buf (Char.chr x)
    else (
      Buffer.add_char buf (Char.chr (0x80 lor (x land 0x7f)));
      go (x lsr 7))
  in
  go x

(* --- variable-length codec --- *)

let encode (t : Tuple.t) : string =
  let buf = Buffer.create 64 in
  buf_add_varint buf (Array.length t);
  Array.iter
    (fun v ->
      match (v : Value.t) with
      | Null -> Buffer.add_char buf '\000'
      | Int x ->
        Buffer.add_char buf '\001';
        buf_add_int64 buf (Int64.of_int x)
      | Float x ->
        Buffer.add_char buf '\002';
        buf_add_int64 buf (Int64.bits_of_float x)
      | Bool b -> Buffer.add_char buf (if b then '\004' else '\003')
      | String s ->
        Buffer.add_char buf '\005';
        buf_add_varint buf (String.length s);
        Buffer.add_string buf s
      | Ext (n, p) ->
        Buffer.add_char buf '\006';
        buf_add_varint buf (String.length n);
        Buffer.add_string buf n;
        buf_add_varint buf (String.length p);
        Buffer.add_string buf p)
    t;
  Buffer.contents buf

(* Corrupt record bytes (an unknown tag, a field running past the
   record, more fields than the caller's row) are a structured,
   non-retryable storage error rather than a bare [Failure] or
   [Invalid_argument], so the run boundary classifies them. *)
let corrupt fmt =
  Sb_resil.Err.fail Sb_resil.Err.Storage ("Row_codec.decode: " ^^ fmt ^^ " (corrupt record)")

(* The offset just past the varint that starts at [start], which must
   end before [stop] within nine bytes; [o] is the byte being examined.
   The value is read by [varint_value] once this has checked the bytes:
   two passes rather than one returning a pair, so that reading a length
   allocates nothing. *)
let rec varint_end (b : Bytes.t) ~start o stop =
  if o >= stop || o - start > 8 then corrupt "length runs past the record";
  if Char.code (Bytes.get b o) land 0x80 = 0 then o + 1
  else varint_end b ~start (o + 1) stop

let rec varint_value (b : Bytes.t) o shift acc =
  let c = Char.code (Bytes.get b o) in
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c land 0x80 = 0 then acc else varint_value b (o + 1) (shift + 7) acc

(* the offset after a field of [width] bytes starting at [o], which must
   end by [stop] *)
let past stop o width =
  if width < 0 || o + width > stop then corrupt "field runs past the record";
  o + width

let decode_into ~(needed : bool array) (b : Bytes.t) ~off ~len (row : Tuple.t) =
  let stop = off + len in
  let off = ref off in
  let n =
    let o = varint_end b ~start:!off !off stop in
    let n = varint_value b !off 0 0 in
    off := o;
    n
  in
  if n > Array.length needed || n > Array.length row then
    corrupt "%d fields, %d expected" n (min (Array.length needed) (Array.length row));
  for i = 0 to n - 1 do
    if !off >= stop then corrupt "field runs past the record";
    let tag = Bytes.get b !off in
    incr off;
    let want = needed.(i) in
    match tag with
    | '\000' -> if want then row.(i) <- Value.Null
    | '\001' ->
      let o = !off in
      off := past stop o 8;
      if want then row.(i) <- Value.Int (Int64.to_int (Bytes.get_int64_le b o))
    | '\002' ->
      let o = !off in
      off := past stop o 8;
      if want then row.(i) <- Value.Float (Int64.float_of_bits (Bytes.get_int64_le b o))
    | '\003' -> if want then row.(i) <- Value.Bool false
    | '\004' -> if want then row.(i) <- Value.Bool true
    | '\005' ->
      let o = varint_end b ~start:!off !off stop in
      let slen = varint_value b !off 0 0 in
      off := past stop o slen;
      if want then row.(i) <- Value.String (Bytes.sub_string b o slen)
    | '\006' ->
      let o = varint_end b ~start:!off !off stop in
      let nlen = varint_value b !off 0 0 in
      let p = past stop o nlen in
      let o' = varint_end b ~start:p p stop in
      let plen = varint_value b p 0 0 in
      off := past stop o' plen;
      if want then
        row.(i) <- Value.Ext (Bytes.sub_string b o nlen, Bytes.sub_string b o' plen)
    | c -> corrupt "bad tag %C" c
  done

let decode (s : string) : Tuple.t =
  let b = Bytes.unsafe_of_string s in
  let len = String.length s in
  ignore (varint_end b ~start:0 0 len);
  let n = varint_value b 0 0 0 in
  let row = Array.make n Value.Null in
  decode_into ~needed:(Array.make n true) b ~off:0 ~len row;
  row

(* --- fixed-length codec --- *)

(** Width in bytes of a fixed-length record for [schema], or [None] if the
    schema contains variable-length columns. *)
let fixed_width (schema : Schema.t) : int option =
  let bitmap = (Array.length schema + 7) / 8 in
  let rec loop i acc =
    if i >= Array.length schema then Some acc
    else
      match schema.(i).Schema.col_type with
      | Datatype.Int | Datatype.Float -> loop (i + 1) (acc + 8)
      | Datatype.Bool -> loop (i + 1) (acc + 1)
      | Datatype.String | Datatype.Ext _ -> None
  in
  loop 0 bitmap

let encode_fixed ~(schema : Schema.t) (t : Tuple.t) : string =
  let n = Array.length schema in
  let bitmap_len = (n + 7) / 8 in
  let buf = Buffer.create 32 in
  let bitmap = Bytes.make bitmap_len '\000' in
  Array.iteri
    (fun i v ->
      if Value.is_null v then
        Bytes.set bitmap (i / 8)
          (Char.chr (Char.code (Bytes.get bitmap (i / 8)) lor (1 lsl (i mod 8)))))
    t;
  Buffer.add_bytes buf bitmap;
  Array.iteri
    (fun i c ->
      let v = t.(i) in
      match c.Schema.col_type with
      | Datatype.Int ->
        buf_add_int64 buf (if Value.is_null v then 0L else Int64.of_int (Value.as_int v))
      | Datatype.Float ->
        buf_add_int64 buf
          (if Value.is_null v then 0L else Int64.bits_of_float (Value.as_float v))
      | Datatype.Bool ->
        Buffer.add_char buf
          (if (not (Value.is_null v)) && Value.as_bool v then '\001' else '\000')
      | Datatype.String | Datatype.Ext _ ->
        Sb_resil.Err.fail Sb_resil.Err.Storage
          "Row_codec.encode_fixed: variable-length column")
    schema;
  Buffer.contents buf

let decode_fixed_into ~(schema : Schema.t) ~(needed : bool array) (b : Bytes.t)
    (off : int) (row : Tuple.t) =
  let n = Array.length schema in
  (* field offsets follow from the schema: each column's width is fixed *)
  let pos = ref (off + ((n + 7) / 8)) in
  for i = 0 to n - 1 do
    let want = needed.(i) in
    let null =
      want && Char.code (Bytes.get b (off + (i / 8))) land (1 lsl (i mod 8)) <> 0
    in
    match schema.(i).Schema.col_type with
    | Datatype.Int ->
      if want then
        row.(i) <-
          (if null then Value.Null
           else Value.Int (Int64.to_int (Bytes.get_int64_le b !pos)));
      pos := !pos + 8
    | Datatype.Float ->
      if want then
        row.(i) <-
          (if null then Value.Null
           else Value.Float (Int64.float_of_bits (Bytes.get_int64_le b !pos)));
      pos := !pos + 8
    | Datatype.Bool ->
      if want then
        row.(i) <-
          (if null then Value.Null else Value.Bool (Bytes.get b !pos = '\001'));
      incr pos
    | Datatype.String | Datatype.Ext _ ->
      Sb_resil.Err.fail Sb_resil.Err.Storage
        "Row_codec.decode_fixed: variable-length column"
  done

let decode_fixed ~(schema : Schema.t) (s : string) : Tuple.t =
  let n = Array.length schema in
  let row = Array.make n Value.Null in
  decode_fixed_into ~schema ~needed:(Array.make n true) (Bytes.unsafe_of_string s) 0 row;
  row
