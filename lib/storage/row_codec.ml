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

let add_field buf (v : Value.t) =
  match v with
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
    Buffer.add_string buf p

let add_count = buf_add_varint

let encode (t : Tuple.t) : string =
  let buf = Buffer.create 64 in
  add_count buf (Array.length t);
  Array.iter (add_field buf) t;
  Buffer.contents buf

(* --- decoding into a sink --- *)

type field = Skip | Boxed | Unboxed

(* the decoder's own state: each [Boxed] field's offset in the record
   last walked, the [Boxed] fields in order, and the STRING cache *)
type scratch = {
  offs : int array;
  boxed : int array;
  mutable strings : Value.t array;
  mutable credit : int array;
  mutable unshared : int;
}

type sink = {
  fields : field array;
  row : Tuple.t;
  ints : int array;
  nulls : bool array;
  scratch : scratch;
}

(* Each [Boxed] field keeps the short STRING values it boxed last, in a
   small direct-mapped cache, and a record whose field holds the same
   bytes shares the value: a low-cardinality column costs no allocation
   per record.  (Values are immutable, so sharing one is invisible.)
   The cache opens after a sink's first [cache_after] short strings, so
   a scan of a small table never pays for it, and a field whose misses
   outrun its hits by [max_credit] (a column of distinct names) stops
   using it. *)
let cache_slots = 8
let short_string = 16
let cache_after = 64
let max_credit = 32

let sink fields =
  let n = Array.length fields in
  let count f = Array.fold_left (fun k g -> if g = f then k + 1 else k) 0 fields in
  let boxed = Array.make (count Boxed) 0 and j = ref 0 in
  Array.iteri
    (fun i f ->
      if f = Boxed then begin
        boxed.(!j) <- i;
        incr j
      end)
    fields;
  let unboxed = count Unboxed > 0 in
  { fields; row = Array.make n Value.Null;
    ints = (if unboxed then Array.make n 0 else [||]);
    nulls = (if unboxed then Array.make n false else [||]);
    scratch =
      { offs = (if Array.length boxed > 0 then Array.make n 0 else [||]); boxed;
        strings = [||]; credit = [||]; unshared = 0 } }

(* Corrupt record bytes (an unknown tag, a field running past the
   record, more fields than the sink holds) are a structured,
   non-retryable storage error rather than a bare [Failure] or
   [Invalid_argument], so the run boundary classifies them. *)
let corrupt fmt =
  Sb_resil.Err.fail Sb_resil.Err.Storage ("Row_codec.decode: " ^^ fmt ^^ " (corrupt record)")

let not_int i =
  Sb_resil.Err.fail Sb_resil.Err.Storage "Row_codec.decode: field %d is not INT" i

(* The walker's failures.  It raises them rather than calling the error
   functions, so that its loop makes no call and keeps its state in
   registers; [decode_into] turns them into structured errors. *)
exception Overrun
exception Too_many of int
exception Not_int of int
exception Bad_tag of char

(* unchecked little-endian 8-byte read: callers have bounded [o + 8] by
   the record's end, which lies inside the buffer *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] int64_at b o = if Sys.big_endian then swap64 (get64u b o) else get64u b o
let[@inline] int_at b o = Int64.to_int (int64_at b o)

(* The offset just past the varint at [o], which must end before [stop]
   within nine bytes.  Its value is read by [varint_value] once this has
   checked the bytes: two passes rather than one returning a pair, so
   that reading a length allocates nothing. *)
let[@inline] varint_end (b : Bytes.t) o stop =
  let p = ref o in
  while
    if !p >= stop || !p - o > 8 then raise_notrace Overrun;
    Char.code (Bytes.unsafe_get b !p) land 0x80 <> 0
  do
    incr p
  done;
  !p + 1

let[@inline] varint_value (b : Bytes.t) o =
  let p = ref o and shift = ref 0 and acc = ref 0 in
  while
    let c = Char.code (Bytes.unsafe_get b !p) in
    acc := !acc lor ((c land 0x7f) lsl !shift);
    c land 0x80 <> 0
  do
    incr p;
    shift := !shift + 7
  done;
  !acc

(* the offset past a length-prefixed byte string at [o], which must end
   by [stop]; a length below 128 is its one byte *)
let[@inline] bytes_end b o stop =
  let c = if o < stop then Char.code (Bytes.unsafe_get b o) else 0x80 in
  let start = if c < 0x80 then o + 1 else varint_end b o stop in
  let len = if c < 0x80 then c else varint_value b o in
  if len < 0 || len > stop - start then raise_notrace Overrun;
  start + len

(* The walk over a record's [n] fields from offset [o]: every field's
   extent is checked against [stop], [Unboxed] fields are decoded, and
   [Boxed] fields' offsets are noted for [box]. *)
let walk (s : sink) (b : Bytes.t) stop n o =
  let fields = s.fields and ints = s.ints and nulls = s.nulls and offs = s.scratch.offs in
  let pos = ref o in
  for i = 0 to n - 1 do
    let o = !pos in
    if o >= stop then raise_notrace Overrun;
    let f = Array.unsafe_get fields i in
    if f = Boxed then Array.unsafe_set offs i o;
    match Bytes.unsafe_get b o with
    | '\000' ->
      pos := o + 1;
      if f = Unboxed then Array.unsafe_set nulls i true
    | ('\001' | '\002') as tag ->
      if o + 9 > stop then raise_notrace Overrun;
      pos := o + 9;
      if f = Unboxed then begin
        if tag <> '\001' then raise_notrace (Not_int i);
        Array.unsafe_set ints i (int_at b (o + 1));
        Array.unsafe_set nulls i false
      end
    | '\003' | '\004' ->
      pos := o + 1;
      if f = Unboxed then raise_notrace (Not_int i)
    | '\005' ->
      pos := bytes_end b (o + 1) stop;
      if f = Unboxed then raise_notrace (Not_int i)
    | '\006' ->
      pos := bytes_end b (bytes_end b (o + 1) stop) stop;
      if f = Unboxed then raise_notrace (Not_int i)
    | tag -> raise_notrace (Bad_tag tag)
  done

(* the byte string whose length prefix is at [o], checked by the walk *)
let string_at b o stop =
  let start = varint_end b o stop in
  Bytes.sub_string b start (varint_value b o)

let same_bytes str b start len =
  let k = ref 0 in
  while !k < len && String.unsafe_get str !k = Bytes.unsafe_get b (start + !k) do
    incr k
  done;
  !k = len

(* the STRING value whose length prefix is at [o], for the [k]th boxed
   field: from its cache when short and seen recently *)
let string_value (c : scratch) k b o stop =
  let b0 = Char.code (Bytes.unsafe_get b o) in
  let start = if b0 < 0x80 then o + 1 else varint_end b o stop in
  let len = if b0 < 0x80 then b0 else varint_value b o in
  if len > short_string then Value.String (Bytes.sub_string b start len)
  else if c.unshared < cache_after then begin
    c.unshared <- c.unshared + 1;
    Value.String (Bytes.sub_string b start len)
  end
  else begin
    if Array.length c.strings = 0 then begin
      c.strings <- Array.make (Array.length c.boxed * cache_slots) Value.Null;
      c.credit <- Array.make (Array.length c.boxed) 0
    end;
    let credit = Array.unsafe_get c.credit k in
    if credit <= - max_credit then Value.String (Bytes.sub_string b start len)
    else begin
      let h = ref 0x811c9dc5 in
      for j = start to start + len - 1 do
        h := (!h lxor Char.code (Bytes.unsafe_get b j)) * 0x01000193
      done;
      let slot = (k * cache_slots) + ((!h lxor (!h lsr 17)) land (cache_slots - 1)) in
      match Array.unsafe_get c.strings slot with
      | Value.String str as v when String.length str = len && same_bytes str b start len ->
        if credit < max_credit then Array.unsafe_set c.credit k (credit + 1);
        v
      | _ ->
        Array.unsafe_set c.credit k (credit - 1);
        let v = Value.String (Bytes.sub_string b start len) in
        Array.unsafe_set c.strings slot v;
        v
    end
  end

(* Boxes the [Boxed] fields among the first [n], from the offsets the
   walk noted and checked. *)
let box (s : sink) (b : Bytes.t) stop n =
  let c = s.scratch in
  for k = 0 to Array.length c.boxed - 1 do
    let i = Array.unsafe_get c.boxed k in
    if i < n then begin
      let o = Array.unsafe_get c.offs i in
      let v =
        match Bytes.unsafe_get b o with
        | '\001' -> Value.Int (int_at b (o + 1))
        | '\002' -> Value.Float (Int64.float_of_bits (int64_at b (o + 1)))
        (* the two constants, not a fresh block per field *)
        | '\003' -> Value.Bool false
        | '\004' -> Value.Bool true
        | '\005' -> string_value c k b (o + 1) stop
        | '\006' ->
          Value.Ext (string_at b (o + 1) stop, string_at b (bytes_end b (o + 1) stop) stop)
        | _ -> Value.Null
      in
      (* a shared value already in place needs no store *)
      if Array.unsafe_get s.row i != v then Array.unsafe_set s.row i v
    end
  done

(* The one record walker: a single range check of the record against
   its buffer, then unchecked reads, each bounded by the record's end. *)
let decode_into (s : sink) (b : Bytes.t) ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    corrupt "record outside its buffer";
  let stop = off + len in
  match
    (* the field count: one byte below 128 fields *)
    let b0 = if len > 0 then Char.code (Bytes.unsafe_get b off) else 0x80 in
    let o = if b0 < 0x80 then off + 1 else varint_end b off stop in
    let n = if b0 < 0x80 then b0 else varint_value b off in
    if n < 0 || n > Array.length s.fields then raise_notrace (Too_many n);
    walk s b stop n o;
    n
  with
  | n -> box s b stop n
  | exception Overrun -> corrupt "field runs past the record"
  | exception Too_many n -> corrupt "%d fields, %d expected" n (Array.length s.fields)
  | exception Not_int i -> not_int i
  | exception Bad_tag c -> corrupt "bad tag %C" c

let decode (str : string) : Tuple.t =
  let b = Bytes.unsafe_of_string str in
  let len = String.length str in
  let n = match varint_end b 0 len with _ -> varint_value b 0 | exception Overrun -> 0 in
  (* a count no record of [len] bytes can hold is left to [decode_into]
     to report *)
  let s = sink (Array.make (if n < 0 || n > len then 0 else n) Boxed) in
  decode_into s b ~off:0 ~len;
  s.row

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

type layout = {
  l_types : Datatype.t array;
  l_offs : int array;  (* each field's offset from the record's start *)
  l_width : int;
}

let fixed_layout (schema : Schema.t) =
  let n = Array.length schema in
  let offs = Array.make n 0 and pos = ref ((n + 7) / 8) in
  Array.iteri
    (fun i c ->
      offs.(i) <- !pos;
      match c.Schema.col_type with
      | Datatype.Int | Datatype.Float -> pos := !pos + 8
      | Datatype.Bool -> incr pos
      | Datatype.String | Datatype.Ext _ ->
        Sb_resil.Err.fail Sb_resil.Err.Storage
          "Row_codec.decode_fixed: variable-length column")
    schema;
  { l_types = Array.map (fun c -> c.Schema.col_type) schema; l_offs = offs; l_width = !pos }

(* field offsets are constants of the layout, so unneeded fields cost
   nothing; one range check covers the whole record *)
let decode_fixed_into (l : layout) (s : sink) (b : Bytes.t) off =
  let n = Array.length l.l_types in
  if n > Array.length s.fields then corrupt "%d fields, %d expected" n (Array.length s.fields);
  if off < 0 || off > Bytes.length b - l.l_width then corrupt "record outside its buffer";
  for i = 0 to n - 1 do
    match Array.unsafe_get s.fields i with
    | Skip -> ()
    | f -> (
      let null =
        Char.code (Bytes.unsafe_get b (off + (i lsr 3))) land (1 lsl (i land 7)) <> 0
      in
      let o = off + Array.unsafe_get l.l_offs i in
      match (f, Array.unsafe_get l.l_types i) with
      | Unboxed, Datatype.Int ->
        Array.unsafe_set s.nulls i null;
        if not null then Array.unsafe_set s.ints i (int_at b o)
      | Unboxed, _ -> not_int i
      | _, _ when null -> Array.unsafe_set s.row i Value.Null
      | _, Datatype.Int -> Array.unsafe_set s.row i (Value.Int (int_at b o))
      | _, Datatype.Float ->
        Array.unsafe_set s.row i (Value.Float (Int64.float_of_bits (int64_at b o)))
      | _, _ -> Array.unsafe_set s.row i (Value.Bool (Bytes.unsafe_get b o = '\001')))
  done

let decode_fixed ~(schema : Schema.t) (str : string) : Tuple.t =
  let s = sink (Array.make (Array.length schema) Boxed) in
  decode_fixed_into (fixed_layout schema) s (Bytes.unsafe_of_string str) 0;
  s.row
