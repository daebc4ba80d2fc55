(** Unit and property tests for the Core storage substrate: values,
    codecs, pages, buffer pool, storage managers, B-tree, R-tree,
    attachments and statistics. *)

open Sb_storage
open Test_util

(* ------------------------------------------------------------------ *)
(* Values and datatypes                                                *)
(* ------------------------------------------------------------------ *)

let test_value_compare () =
  Alcotest.(check bool) "int/float numeric" true (Value.compare (i 2) (f 2.0) = 0);
  Alcotest.(check bool) "null lowest" true (Value.compare nul (i (-1000)) < 0);
  Alcotest.(check bool) "string order" true (Value.compare (s "a") (s "b") < 0);
  Alcotest.(check bool) "bool order" true (Value.compare (b false) (b true) < 0);
  Alcotest.(check bool) "equal hash" true (Value.hash (i 3) = Value.hash (f 3.0))

(* every pair here compares equal, so it must hash alike: the int/float
   seams (signed zero, 2^53, where ints stop being exact floats, and
   the ends of the int range) and NaN *)
let test_value_hash_fixture () =
  let p53 = 1 lsl 53 in
  let pairs =
    [
      ("0 / -0.0", i 0, f (-0.0));
      ("0.0 / -0.0", f 0.0, f (-0.0));
      ("1 / 1.0", i 1, f 1.0);
      ("-1 / -1.0", i (-1), f (-1.0));
      ("2^53", i p53, f 0x1p53);
      ("-2^53", i (-p53), f (-0x1p53));
      ("2^53 + 1 rounds to 2^53", i (p53 + 1), f 0x1p53);
      ("-2^62 (min_int)", i min_int, f (-0x1p62));
      ("max_int rounds to 2^62", i max_int, f 0x1p62);
      ("NaN / NaN", f nan, f nan);
      ("NaN / -NaN", f nan, f (-.nan));
      ("1.5", f 1.5, f 1.5);
      ("infinity", f infinity, f infinity);
      ("string", s "abc", s "abc");
    ]
  in
  List.iter
    (fun (what, a, b) ->
      Alcotest.(check int) (what ^ ": compare equal") 0 (Value.compare a b);
      Alcotest.(check int) (what ^ ": hash") (Value.hash a) (Value.hash b))
    pairs

let test_value_ext_registry () =
  let reg = Datatype.create_registry () in
  Datatype.register reg
    {
      Datatype.ext_name = "MOD7";
      ext_parse = (fun s -> Ok s);
      ext_compare =
        (fun a b -> compare (int_of_string a mod 7) (int_of_string b mod 7));
      ext_print = (fun p -> "m" ^ p);
    };
  let a = Value.Ext ("MOD7", "8") and c = Value.Ext ("MOD7", "1") in
  Alcotest.(check bool) "registry compare" true (Value.compare ~registry:reg a c = 0);
  Alcotest.(check bool) "without registry" false (Value.compare a c = 0);
  Alcotest.(check string) "print" "m8" (Value.to_string ~registry:reg a)

let test_schema_validate () =
  let schema =
    [| Schema.column ~nullable:false "a" Datatype.Int;
       Schema.column "b" Datatype.String |]
  in
  Alcotest.(check bool) "ok" true (Schema.validate ~schema (row [ i 1; s "x" ]) = Ok ());
  Alcotest.(check bool) "null ok" true (Schema.validate ~schema (row [ i 1; nul ]) = Ok ());
  Alcotest.(check bool) "not null" true
    (Result.is_error (Schema.validate ~schema (row [ nul; s "x" ])));
  Alcotest.(check bool) "type" true
    (Result.is_error (Schema.validate ~schema (row [ s "no"; s "x" ])));
  Alcotest.(check bool) "arity" true
    (Result.is_error (Schema.validate ~schema (row [ i 1 ])))

(* ------------------------------------------------------------------ *)
(* Row codec                                                           *)
(* ------------------------------------------------------------------ *)

let value_gen =
  QCheck2.Gen.(
    oneof
      [
        return Value.Null;
        map (fun x -> Value.Int x) int;
        map (fun x -> Value.Float (float_of_int x /. 7.0)) int;
        map (fun x -> Value.Bool x) bool;
        map (fun x -> Value.String x) (string_size (0 -- 40));
        map2 (fun a p -> Value.Ext (a, p)) (string_size (1 -- 5)) (string_size (0 -- 10));
      ])

let tuple_gen = QCheck2.Gen.(map Array.of_list (list_size (0 -- 12) value_gen))

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"row codec round-trip" ~count:500 tuple_gen (fun t ->
      Tuple.compare (Row_codec.decode (Row_codec.encode t)) t = 0)

let fixed_schema =
  [| Schema.column "a" Datatype.Int;
     Schema.column "b" Datatype.Float;
     Schema.column "c" Datatype.Bool |]

let fixed_tuple_gen =
  QCheck2.Gen.(
    map
      (fun (a, bv, c) ->
        [|
          (match a with Some x -> Value.Int x | None -> Value.Null);
          (match bv with Some x -> Value.Float (float_of_int x) | None -> Value.Null);
          (match c with Some x -> Value.Bool x | None -> Value.Null);
        |])
      (triple (opt int) (opt int) (opt bool)))

let prop_fixed_codec =
  QCheck2.Test.make ~name:"fixed codec round-trip" ~count:300 fixed_tuple_gen
    (fun t ->
      Tuple.compare
        (Row_codec.decode_fixed ~schema:fixed_schema
           (Row_codec.encode_fixed ~schema:fixed_schema t))
        t
      = 0)

(* Partial decode: for every [needed] mask over a 5-column schema, the
   needed slots of [decode_into] / [decode_fixed_into] equal the full
   decoders' and the others are left untouched.  Each mask runs twice:
   with every needed field [Boxed], and with the needed INT fields
   [Unboxed], whose value and NULL mark must then equal the full
   decoder's.  Each record is decoded at an offset inside a larger
   buffer, as it sits in a page. *)

(* same constructor and, for floats, the same bits (NaN, -0.0) *)
let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.compare a b = 0 && Value.type_of a = Value.type_of b

let untouched = Value.String "untouched"
let untouched_int = 0x5eed

let in_page record =
  let pad = 13 in
  let b = Bytes.make (String.length record + (2 * pad)) '\255' in
  Bytes.blit_string record 0 b pad (String.length record);
  (b, pad)

(* the field modes of [mask]: a needed field is [Unboxed] when [unboxed]
   and [int_col] holds of it, else [Boxed] *)
let modes ~mask ~unboxed ~int_col =
  Array.init 5 (fun c ->
      if mask land (1 lsl c) = 0 then Row_codec.Skip
      else if unboxed && int_col c then Row_codec.Unboxed
      else Row_codec.Boxed)

(* a sink for [fields], every slot marked so that a write shows *)
let marked_sink fields =
  let s = Row_codec.sink fields in
  Array.fill s.Row_codec.row 0 5 untouched;
  Array.fill s.Row_codec.ints 0 (Array.length s.Row_codec.ints) untouched_int;
  Array.fill s.Row_codec.nulls 0 (Array.length s.Row_codec.nulls) true;
  s

let check_partial ~name ~full ~into ~int_col record =
  let expected = full record in
  let b, off = in_page record in
  for mask = 0 to 31 do
    List.iter
      (fun unboxed ->
        let fields = modes ~mask ~unboxed ~int_col in
        let s = marked_sink fields in
        into s b ~off ~len:(String.length record);
        let fail c got want =
          Alcotest.failf "%s mask %d%s col %d: got %s, expected %s" name mask
            (if unboxed then " unboxed" else "") c got want
        in
        Array.iteri
          (fun c field ->
            let got = s.Row_codec.row.(c) in
            match field with
            | Row_codec.Skip ->
              if got != untouched || (Array.length s.Row_codec.ints > 0 && s.Row_codec.ints.(c) <> untouched_int) then
                fail c (Value.to_string got) "untouched"
            | Row_codec.Boxed ->
              if not (same_value got expected.(c)) then
                fail c (Value.to_string got) (Value.to_string expected.(c))
            | Row_codec.Unboxed -> (
              if got != untouched then fail c (Value.to_string got) "row untouched";
              match expected.(c) with
              | Value.Null ->
                if not s.Row_codec.nulls.(c) then fail c "not NULL" "NULL"
              | Value.Int x ->
                if s.Row_codec.nulls.(c) || s.Row_codec.ints.(c) <> x then
                  fail c (string_of_int s.Row_codec.ints.(c)) (string_of_int x)
              | v -> fail c "unboxed" (Value.to_string v)))
          fields)
      [ false; true ]
  done

(* fields holding an INT or NULL: an unboxed decode accepts them *)
let int_or_null t c = match t.(c) with Value.Int _ | Value.Null -> true | _ -> false

let fixed_schema5 =
  [| Schema.column "a" Datatype.Int; Schema.column "b" Datatype.Float;
     Schema.column "c" Datatype.Bool; Schema.column "d" Datatype.Float;
     Schema.column "e" Datatype.Int |]

let test_partial_decode () =
  let long = String.init 200 (fun k -> Char.chr (65 + (k mod 26))) in
  let ext = Value.Ext ("MOD7", "12") in
  let var_rows =
    [
      row [ nul; i 0; f nan; b true; s "" ];
      row [ i (-7); f (-0.0); s long; ext; nul ];
      row [ s "x"; ext; nul; f infinity; b false ];
      row [ i max_int; i min_int; f 1.5; s ""; Value.Ext ("T", "") ];
      row [ b false; nul; nul; nul; s long ];
      row [ i min_int; nul; i max_int; i 0; i (-1) ];
    ]
  in
  List.iteri
    (fun k t ->
      check_partial ~name:(Printf.sprintf "var row %d" k) ~full:Row_codec.decode
        ~into:Row_codec.decode_into ~int_col:(int_or_null t) (Row_codec.encode t))
    var_rows;
  let schema = fixed_schema5 in
  let layout = Row_codec.fixed_layout schema in
  let fixed_rows =
    [
      row [ i 1; f nan; b true; f (-0.0); nul ];
      row [ nul; nul; nul; nul; nul ];
      row [ i min_int; f 0.0; b false; f neg_infinity; i max_int ];
      row [ i 0; nul; b true; f 2.5; i (-3) ];
    ]
  in
  List.iteri
    (fun k t ->
      check_partial ~name:(Printf.sprintf "fixed row %d" k)
        ~full:(Row_codec.decode_fixed ~schema)
        ~into:(fun s b ~off ~len:_ -> Row_codec.decode_fixed_into layout s b off)
        ~int_col:(fun c -> c = 0 || c = 4)
        (Row_codec.encode_fixed ~schema t))
    fixed_rows;
  (* a corrupt record is a structured Storage error whether or not the
     corrupt field is needed, boxed or unboxed *)
  let corrupt_case what record ~len ~int_col =
    for mask = 0 to 31 do
      List.iter
        (fun unboxed ->
          let s = Row_codec.sink (modes ~mask ~unboxed ~int_col) in
          match Row_codec.decode_into s record ~off:0 ~len with
          | () -> Alcotest.failf "%s, mask %d: decoded" what mask
          | exception Sb_resil.Err.Error e ->
            Alcotest.(check string) what "storage" (Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage))
        [ false; true ]
    done
  in
  let ints = row [ i 1; i 2; i 3; i 4; i 5 ] in
  let record = Bytes.of_string (Row_codec.encode ints) in
  (* varint field count, then tag + 8 bytes per INT: the third tag *)
  Bytes.set record (1 + (2 * 9)) '\042';
  corrupt_case "bad tag" record ~len:(Bytes.length record) ~int_col:(int_or_null ints);
  (* a record cut short anywhere: the bytes past [len] still hold the
     whole record, so only the length check can catch it *)
  List.iter
    (fun t ->
      let record = Bytes.of_string (Row_codec.encode t) in
      for len = 0 to Bytes.length record - 1 do
        corrupt_case (Printf.sprintf "truncated to %d" len) record ~len ~int_col:(int_or_null t)
      done)
    [ row [ i 1; f 2.5; s long; ext; b true ]; row [ s ""; nul; ext; s "xy"; i 3 ];
      row [ i min_int; nul; i max_int; nul; i 7 ] ];
  (* more fields than the schema's five *)
  let wide = Bytes.of_string (Row_codec.encode (row [ i 1; i 2; i 3; i 4; i 5; i 6 ])) in
  corrupt_case "six fields" wide ~len:(Bytes.length wide) ~int_col:(fun _ -> true);
  (* a record that does not lie inside its buffer *)
  corrupt_case "past the buffer" wide ~len:(Bytes.length wide + 1) ~int_col:(fun _ -> true);
  (* an unboxed field must hold an INT or NULL *)
  let not_int what decode =
    match decode () with
    | () -> Alcotest.failf "%s: decoded" what
    | exception Sb_resil.Err.Error e ->
      Alcotest.(check string) what "storage" (Sb_resil.Err.stage_name e.Sb_resil.Err.err_stage)
  in
  let all_unboxed = Array.make 5 Row_codec.Unboxed in
  let mixed = Bytes.of_string (Row_codec.encode (row [ i 1; s "x"; nul; i 2; i 3 ])) in
  not_int "unboxed STRING field" (fun () ->
      Row_codec.decode_into (Row_codec.sink all_unboxed) mixed ~off:0 ~len:(Bytes.length mixed));
  let fixed = Bytes.of_string (Row_codec.encode_fixed ~schema (row [ i 1; f 2.0; b true; f 1.0; i 2 ])) in
  not_int "unboxed FLOAT column" (fun () ->
      Row_codec.decode_fixed_into layout (Row_codec.sink all_unboxed) fixed 0);
  not_int "fixed record past its buffer" (fun () ->
      Row_codec.decode_fixed_into layout (Row_codec.sink (Array.make 5 Row_codec.Boxed)) fixed 1)

(* A boxed STRING field shares the value of an equal short string the
   sink boxed lately, once its cache has opened; strings that collide
   in the cache ("abc" and "axc": same length, first and last byte), a
   long string and the empty string still decode to their own bytes. *)
let test_string_sharing () =
  let strs = [| "abc"; "axc"; ""; "A"; String.make 40 'q'; "abc" |] in
  let sink = Row_codec.sink [| Row_codec.Boxed; Row_codec.Boxed |] in
  let last = Hashtbl.create 8 in
  let shared = ref 0 in
  for k = 0 to 299 do
    let str = strs.(k mod Array.length strs) in
    let record = Bytes.of_string (Row_codec.encode (row [ s str; i k ])) in
    Row_codec.decode_into sink record ~off:0 ~len:(Bytes.length record);
    check_rows "decoded" [ row [ s str; i k ] ] [ Array.copy sink.Row_codec.row ];
    let v = sink.Row_codec.row.(0) in
    (match Hashtbl.find_opt last str with Some w when w == v -> incr shared | _ -> ());
    Hashtbl.replace last str v
  done;
  (* "abc" and "axc" evict each other; "" and "A" stay cached *)
  Alcotest.(check bool) "short strings shared once the cache opens" true (!shared > 60)

(* skipping an unneeded STRING field reads its length in place, and an
   INT field decoded unboxed is not boxed: a decode that writes no boxed
   field allocates nothing, on heap and fixed records *)
let test_partial_decode_allocation () =
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = words ignore in
  let check_none what decode =
    let w = words (fun () -> for _ = 1 to 1000 do decode () done) in
    Alcotest.(check (float 0.0)) (what ^ ": minor words per 1000 decodes") 0.0 (w -. overhead)
  in
  let record = Bytes.of_string (Row_codec.encode (row [ b true; s "skipped"; nul ])) in
  let len = Bytes.length record in
  let into = Row_codec.sink [| Row_codec.Boxed; Row_codec.Skip; Row_codec.Boxed |] in
  check_none "boxed BOOL and NULL" (fun () -> Row_codec.decode_into into record ~off:0 ~len);
  check_rows "decoded" [ row [ b true; nul; nul ] ] [ into.Row_codec.row ];
  let record =
    Bytes.of_string (Row_codec.encode (row [ i max_int; s "skipped"; nul; i min_int ]))
  in
  let len = Bytes.length record in
  let ints =
    Row_codec.sink [| Row_codec.Unboxed; Row_codec.Skip; Row_codec.Unboxed; Row_codec.Unboxed |]
  in
  check_none "unboxed INT" (fun () -> Row_codec.decode_into ints record ~off:0 ~len);
  Alcotest.(check (array int)) "unboxed values" [| max_int; 0; 0; min_int |]
    [| ints.Row_codec.ints.(0); 0; 0; ints.Row_codec.ints.(3) |];
  Alcotest.(check (array bool)) "NULL marks" [| false; false; true; false |]
    ints.Row_codec.nulls;
  let layout = Row_codec.fixed_layout fixed_schema5 in
  let fixed =
    Bytes.of_string
      (Row_codec.encode_fixed ~schema:fixed_schema5 (row [ i min_int; f 1.0; b true; nul; nul ]))
  in
  let fints =
    Row_codec.sink
      [| Row_codec.Unboxed; Row_codec.Skip; Row_codec.Skip; Row_codec.Skip; Row_codec.Unboxed |]
  in
  check_none "fixed unboxed INT" (fun () -> Row_codec.decode_fixed_into layout fints fixed 0);
  Alcotest.(check int) "fixed min_int" min_int fints.Row_codec.ints.(0);
  Alcotest.(check (array bool)) "fixed NULL marks" [| false; false; false; false; true |]
    fints.Row_codec.nulls

(* ------------------------------------------------------------------ *)
(* Pages                                                               *)
(* ------------------------------------------------------------------ *)

let test_page_basic () =
  let p = Page.create 0 in
  let s1 = Page.insert p "hello" in
  let s2 = Page.insert p "world!" in
  Alcotest.(check (option string)) "get1" (Some "hello") (Page.get p s1);
  Alcotest.(check (option string)) "get2" (Some "world!") (Page.get p s2);
  Page.delete p s1;
  Alcotest.(check (option string)) "deleted" None (Page.get p s1);
  Alcotest.(check (option string)) "survivor" (Some "world!") (Page.get p s2);
  Alcotest.(check int) "live count" 1 (Page.live_count p);
  (* update in place *)
  Alcotest.(check bool) "shrink update" true (Page.update p s2 "tiny");
  Alcotest.(check (option string)) "updated" (Some "tiny") (Page.get p s2)

let test_page_compact () =
  let p = Page.create ~size:256 0 in
  let slots = ref [] in
  (try
     while true do
       slots := Page.insert p (String.make 20 'x') :: !slots
     done
   with Sb_resil.Err.Error _ -> ());
  let n = List.length !slots in
  Alcotest.(check bool) "filled some" true (n > 3);
  (* free every other slot, compact, and re-insert *)
  List.iteri (fun k slot -> if k mod 2 = 0 then Page.delete p slot) !slots;
  Page.compact p;
  let slot = Page.insert p (String.make 20 'y') in
  Alcotest.(check (option string)) "post-compact insert" (Some (String.make 20 'y'))
    (Page.get p slot);
  (* survivors intact *)
  List.iteri
    (fun k slot ->
      if k mod 2 = 1 then
        Alcotest.(check (option string)) "survivor" (Some (String.make 20 'x'))
          (Page.get p slot))
    !slots

(* ------------------------------------------------------------------ *)
(* Buffer pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_buffer_pool_eviction () =
  let pool = Buffer_pool.create ~capacity:4 () in
  let file = Buffer_pool.create_file pool in
  for _ = 1 to 10 do
    ignore (Buffer_pool.alloc_page pool file)
  done;
  (* write a distinct record into each page *)
  for p = 0 to 9 do
    Buffer_pool.with_page pool file p (fun page ->
        ignore (Page.insert page (string_of_int p)))
  done;
  Buffer_pool.reset_stats pool;
  (* all data survives eviction *)
  for p = 0 to 9 do
    Buffer_pool.with_page pool file p (fun page ->
        Alcotest.(check (option string))
          (Printf.sprintf "page %d" p)
          (Some (string_of_int p)) (Page.get page 0))
  done;
  let stats = Buffer_pool.stats pool in
  Alcotest.(check bool) "physical reads happened" true (stats.Buffer_pool.physical_reads > 0);
  Alcotest.(check int) "logical reads" 10 stats.Buffer_pool.logical_reads

(* The recency list against a reference model of the min-[last_used]
   rule it replaced: every pin and allocation stamps its frame with a
   fresh tick, and eviction removes the unpinned frame with the smallest
   stamp.  A seeded trace of pins (some held across later steps),
   writes, allocations and a file drop runs over more pages than the
   pool holds; after every step the resident pages (in recency order)
   and the counters must match the model exactly. *)
module Lru_model = struct
  type frame = { mutable pins : int; mutable stamp : int }

  type t = {
    cap : int;
    frames : (int * int, frame) Hashtbl.t;
    dirty : (int * int, unit) Hashtbl.t;
    mutable tick : int;
    mutable logical : int;
    mutable physical : int;
    mutable writes : int;
    mutable evictions : int;
  }

  let create cap =
    { cap; frames = Hashtbl.create 16; dirty = Hashtbl.create 16; tick = 0;
      logical = 0; physical = 0; writes = 0; evictions = 0 }

  let rec evict m =
    if Hashtbl.length m.frames > m.cap then begin
      let victim =
        Hashtbl.fold
          (fun key fr best ->
            if fr.pins > 0 then best
            else
              match best with
              | Some (_, b) when b.stamp <= fr.stamp -> best
              | _ -> Some (key, fr))
          m.frames None
      in
      match victim with
      | None -> ()
      | Some (key, _) ->
        if Hashtbl.mem m.dirty key then begin
          Hashtbl.remove m.dirty key;
          m.writes <- m.writes + 1
        end;
        m.evictions <- m.evictions + 1;
        Hashtbl.remove m.frames key;
        evict m
    end

  let pin m key =
    m.tick <- m.tick + 1;
    m.logical <- m.logical + 1;
    (match Hashtbl.find_opt m.frames key with
    | Some fr ->
      fr.pins <- fr.pins + 1;
      fr.stamp <- m.tick
    | None ->
      m.physical <- m.physical + 1;
      Hashtbl.replace m.frames key { pins = 1; stamp = m.tick });
    evict m

  let unpin m key =
    match Hashtbl.find_opt m.frames key with
    | Some fr when fr.pins > 0 -> fr.pins <- fr.pins - 1
    | _ -> ()

  let alloc m key =
    m.tick <- m.tick + 1;
    Hashtbl.replace m.frames key { pins = 0; stamp = m.tick };
    evict m

  let drop_file m file =
    Hashtbl.filter_map_inplace
      (fun (f, _) fr -> if f = file then None else Some fr)
      m.frames

  let resident m =
    Hashtbl.fold (fun key fr acc -> (fr.stamp, key) :: acc) m.frames []
    |> List.sort compare |> List.map snd
end

let test_buffer_pool_lru_model () =
  let cap = 6 in
  let pool = Buffer_pool.create ~capacity:cap () in
  let m = Lru_model.create cap in
  let rng = Random.State.make [| 42 |] in
  let files = ref [] and held = ref [] in
  let new_file () =
    let file = Buffer_pool.create_file pool in
    files := !files @ [ file ];
    for _ = 1 to 8 do
      Lru_model.alloc m (file, Buffer_pool.alloc_page pool file)
    done
  in
  let check step =
    let st = Buffer_pool.stats pool in
    let msg what = Printf.sprintf "step %d: %s" step what in
    Alcotest.(check (list (pair int int)))
      (msg "resident, oldest first") (Lru_model.resident m) (Buffer_pool.resident pool);
    Alcotest.(check (list int)) (msg "logical/physical reads, writes, evictions")
      [ m.logical; m.physical; m.writes; m.evictions ]
      [ st.Buffer_pool.logical_reads; st.physical_reads; st.physical_writes; st.evictions ]
  in
  let random_page () =
    let file = List.nth !files (Random.State.int rng (List.length !files)) in
    (file, Random.State.int rng (Buffer_pool.page_count pool file))
  in
  new_file ();
  new_file ();
  for step = 1 to 2000 do
    if step mod 500 = 0 then begin
      (* drop the oldest file, holds and all, and start a new one *)
      let file = List.hd !files in
      Buffer_pool.drop_file pool file;
      Lru_model.drop_file m file;
      files := List.tl !files;
      held := List.filter (fun (f, _) -> f <> file) !held;
      new_file ()
    end
    else (match Random.State.int rng 20 with
    | 0 when List.length !held < cap - 1 ->
      (* pin and hold across later steps *)
      let ((file, page_no) as key) = random_page () in
      ignore (Buffer_pool.pin pool file page_no);
      Lru_model.pin m key;
      held := key :: !held
    | 1 | 2 -> (
      match !held with
      | (file, page_no) as key :: rest ->
        Buffer_pool.unpin pool file page_no;
        Lru_model.unpin m key;
        held := rest
      | [] -> ())
    | 3 ->
      (* a write: the page is written back when evicted *)
      let ((file, page_no) as key) = random_page () in
      Buffer_pool.with_page pool file page_no (fun p -> p.Page.dirty <- true);
      Lru_model.pin m key;
      Lru_model.unpin m key;
      Hashtbl.replace m.Lru_model.dirty key ()
    | 4 ->
      let file = List.nth !files (Random.State.int rng (List.length !files)) in
      Lru_model.alloc m (file, Buffer_pool.alloc_page pool file)
    | _ ->
      let ((file, page_no) as key) = random_page () in
      Buffer_pool.with_page pool file page_no ignore;
      Lru_model.pin m key;
      Lru_model.unpin m key);
    check step
  done;
  Alcotest.(check bool) "the trace evicted" true (m.Lru_model.evictions > 100);
  (* a simulated crash empties the list; the pool works on afterwards *)
  Buffer_pool.discard_all pool;
  Alcotest.(check (list (pair int int))) "discarded" [] (Buffer_pool.resident pool);
  let m = Lru_model.create cap in
  Buffer_pool.reset_stats pool;
  let file = Buffer_pool.create_file pool in
  for k = 0 to (2 * cap) - 1 do
    Lru_model.alloc m (file, Buffer_pool.alloc_page pool file);
    Buffer_pool.with_page pool file (k / 2) ignore;
    Lru_model.pin m (file, k / 2);
    Lru_model.unpin m (file, k / 2)
  done;
  Alcotest.(check (list (pair int int)))
    "after discard" (Lru_model.resident m) (Buffer_pool.resident pool);
  Alcotest.(check int) "evictions after discard" m.Lru_model.evictions
    (Buffer_pool.stats pool).Buffer_pool.evictions

(* ------------------------------------------------------------------ *)
(* Storage managers                                                    *)
(* ------------------------------------------------------------------ *)

(* every live record through the scan primitive, as (rid, row) *)
let sm_scan (sm : Storage_manager.instance) ~width =
  let sink = Row_codec.sink (Array.make width Row_codec.Boxed) in
  List.concat_map
    (fun page ->
      let rows = ref [] in
      sm.Storage_manager.scan_page page sink (fun slot ->
          rows :=
            ({ Storage_manager.rid_page = page; rid_slot = slot }, Array.copy sink.Row_codec.row)
            :: !rows);
      List.rev !rows)
    (List.init (sm.Storage_manager.page_count ()) Fun.id)

let exercise_storage_manager make_instance =
  let sm : Storage_manager.instance = make_instance () in
  let rids =
    List.init 500 (fun k ->
        sm.Storage_manager.insert (row [ i k; f (float_of_int (k * 2)); b (k mod 2 = 0) ]))
  in
  Alcotest.(check int) "count" 500 (sm.Storage_manager.tuple_count ());
  (* fetch *)
  List.iteri
    (fun k rid ->
      match sm.Storage_manager.fetch rid with
      | Some t -> Alcotest.check value_testable "fetch col0" (i k) t.(0)
      | None -> Alcotest.failf "missing rid %d" k)
    rids;
  (* delete every third *)
  List.iteri
    (fun k rid -> if k mod 3 = 0 then ignore (sm.Storage_manager.delete rid))
    rids;
  Alcotest.(check int) "after delete" (500 - 167) (sm.Storage_manager.tuple_count ());
  (* update survivors *)
  List.iteri
    (fun k rid ->
      if k mod 3 = 1 then
        ignore (sm.Storage_manager.update rid (row [ i (-k); f 0.0; b false ])))
    rids;
  (* scan agrees *)
  let scanned = sm_scan sm ~width:3 in
  Alcotest.(check int) "scan count" (500 - 167) (List.length scanned);
  List.iter
    (fun (rid, t) ->
      match sm.Storage_manager.fetch rid with
      | Some t' -> Alcotest.check tuple_testable "scan=fetch" t t'
      | None -> Alcotest.fail "scan returned dead rid")
    scanned;
  (* double delete is false *)
  Alcotest.(check bool) "double delete" false
    (sm.Storage_manager.delete (List.nth rids 0));
  sm.Storage_manager.truncate ();
  Alcotest.(check int) "truncated" 0 (sm.Storage_manager.tuple_count ());
  Alcotest.(check int) "truncated scan" 0
    (List.length (sm_scan sm ~width:3))

let sm_schema =
  [| Schema.column "a" Datatype.Int;
     Schema.column "b" Datatype.Float;
     Schema.column "c" Datatype.Bool |]

let test_heap_manager () =
  exercise_storage_manager (fun () ->
      let pool = Buffer_pool.create () in
      Heap_file.factory.Storage_manager.create ~pool ~schema:sm_schema)

let test_fixed_manager () =
  exercise_storage_manager (fun () ->
      let pool = Buffer_pool.create () in
      Fixed_file.factory.Storage_manager.create ~pool ~schema:sm_schema)

let test_fixed_rejects_varlen () =
  let schema = [| Schema.column "a" Datatype.String |] in
  Alcotest.(check bool) "supports" false
    (Fixed_file.factory.Storage_manager.supports schema)

(* variable-length records spanning growth *)
let test_heap_varlen () =
  let pool = Buffer_pool.create () in
  let schema = [| Schema.column "a" Datatype.String |] in
  let sm = Heap_file.factory.Storage_manager.create ~pool ~schema in
  let rids =
    List.init 100 (fun k -> sm.Storage_manager.insert (row [ s (String.make (k * 7) 'z') ]))
  in
  List.iteri
    (fun k rid ->
      match sm.Storage_manager.fetch rid with
      | Some t -> Alcotest.(check int) "length" (k * 7) (String.length (Value.as_string t.(0)))
      | None -> Alcotest.fail "missing")
    rids;
  (* grow a record beyond its page: the manager may refuse, in which
     case the caller (Table_store) deletes and reinserts *)
  let rid = List.nth rids 1 in
  let big_row = row [ s (String.make 3000 'w') ] in
  let rid =
    if sm.Storage_manager.update rid big_row then rid
    else begin
      ignore (sm.Storage_manager.delete rid);
      sm.Storage_manager.insert big_row
    end
  in
  (match sm.Storage_manager.fetch rid with
  | Some t -> Alcotest.(check int) "grown" 3000 (String.length (Value.as_string t.(0)))
  | None -> Alcotest.fail "grown record missing")

(* ------------------------------------------------------------------ *)
(* B-tree vs model                                                     *)
(* ------------------------------------------------------------------ *)

let rid_of k = { Storage_manager.rid_page = k; rid_slot = k * 7 }

let btree_ops_gen =
  QCheck2.Gen.(
    list_size (10 -- 400)
      (oneof
         [
           map (fun k -> `Insert (k mod 50)) small_nat;
           map (fun k -> `Delete (k mod 50)) small_nat;
         ]))

let prop_btree_model =
  QCheck2.Test.make ~name:"b-tree matches sorted model" ~count:120 btree_ops_gen
    (fun ops ->
      let t = Btree.create ~order:4 () in
      let model : (int, int list) Hashtbl.t = Hashtbl.create 16 in
      let serial = ref 0 in
      List.iter
        (fun op ->
          match op with
          | `Insert k ->
            incr serial;
            Btree.insert t [| Value.Int k |] (rid_of !serial);
            Hashtbl.replace model k
              (!serial :: Option.value ~default:[] (Hashtbl.find_opt model k))
          | `Delete k -> (
            match Hashtbl.find_opt model k with
            | Some (v :: rest) ->
              let ok = Btree.delete t [| Value.Int k |] (rid_of v) in
              if not ok then raise Exit;
              if rest = [] then Hashtbl.remove model k
              else Hashtbl.replace model k rest
            | _ ->
              if Btree.delete t [| Value.Int k |] (rid_of 999999) then raise Exit))
        ops;
      (* structural invariants *)
      if not (Btree.check t) then raise Exit;
      (* full range scan = sorted model *)
      let scanned =
        List.of_seq (Btree.range t ())
        |> List.map (fun (k, rid) -> (Value.as_int k.(0), rid.Storage_manager.rid_page))
      in
      let expected =
        Hashtbl.fold (fun k vs acc -> List.map (fun v -> (k, v)) vs @ acc) model []
        |> List.sort compare
      in
      List.sort compare scanned = expected
      (* point lookups agree *)
      && Hashtbl.fold
           (fun k vs acc ->
             acc
             && List.sort compare
                  (List.map (fun r -> r.Storage_manager.rid_page) (Btree.find t [| Value.Int k |]))
                = List.sort compare vs)
           model true)

let test_btree_range () =
  let t = Btree.create ~order:4 () in
  for k = 0 to 99 do
    Btree.insert t [| Value.Int k |] (rid_of k)
  done;
  let range ?lo ?hi () =
    List.of_seq (Btree.range t ?lo ?hi ()) |> List.map (fun (k, _) -> Value.as_int k.(0))
  in
  Alcotest.(check (list int)) "closed range" [ 10; 11; 12 ]
    (range ~lo:([| Value.Int 10 |], true) ~hi:([| Value.Int 12 |], true) ());
  Alcotest.(check (list int)) "open range" [ 11 ]
    (range ~lo:([| Value.Int 10 |], false) ~hi:([| Value.Int 12 |], false) ());
  Alcotest.(check int) "unbounded" 100 (List.length (range ()));
  Alcotest.(check (list int)) "hi only" [ 0; 1; 2 ]
    (range ~hi:([| Value.Int 2 |], true) ());
  Alcotest.(check (list int)) "lo only" [ 97; 98; 99 ]
    (range ~lo:([| Value.Int 97 |], true) ())

(* ------------------------------------------------------------------ *)
(* R-tree vs model                                                     *)
(* ------------------------------------------------------------------ *)

let rect_gen =
  QCheck2.Gen.(
    map
      (fun (x, y, w, h) ->
        Rtree.rect
          ~x0:(float_of_int (x mod 100))
          ~y0:(float_of_int (y mod 100))
          ~x1:(float_of_int ((x mod 100) + 1 + (w mod 20)))
          ~y1:(float_of_int ((y mod 100) + 1 + (h mod 20))))
      (quad small_nat small_nat small_nat small_nat))

let prop_rtree_model =
  QCheck2.Test.make ~name:"r-tree matches linear scan" ~count:60
    QCheck2.Gen.(pair (list_size (1 -- 200) rect_gen) (list_size (1 -- 10) rect_gen))
    (fun (rects, queries) ->
      let t = Rtree.create ~max_entries:4 () in
      List.iteri (fun k r -> Rtree.insert t r (rid_of k)) rects;
      List.for_all
        (fun query ->
          let found =
            List.sort compare
              (List.map (fun r -> r.Storage_manager.rid_page) (Rtree.search t query))
          in
          let expected =
            List.mapi (fun k r -> (k, r)) rects
            |> List.filter (fun (_, r) -> Rtree.overlaps r query)
            |> List.map fst |> List.sort compare
          in
          found = expected)
        queries)

let test_rtree_delete () =
  let t = Rtree.create ~max_entries:4 () in
  let r1 = Rtree.rect ~x0:0. ~y0:0. ~x1:1. ~y1:1. in
  let r2 = Rtree.rect ~x0:5. ~y0:5. ~x1:6. ~y1:6. in
  Rtree.insert t r1 (rid_of 1);
  Rtree.insert t r2 (rid_of 2);
  Alcotest.(check bool) "delete hit" true (Rtree.delete t r1 (rid_of 1));
  Alcotest.(check bool) "delete miss" false (Rtree.delete t r1 (rid_of 1));
  Alcotest.(check int) "one left" 1 (Rtree.entry_count t);
  Alcotest.(check int) "search survivor" 1
    (List.length (Rtree.search t (Rtree.rect ~x0:0. ~y0:0. ~x1:10. ~y1:10.)))

(* ------------------------------------------------------------------ *)
(* Table store + attachments                                           *)
(* ------------------------------------------------------------------ *)

let test_attachment_maintenance () =
  let cat = Catalog.create () in
  let schema =
    [| Schema.column "k" Datatype.Int; Schema.column "v" Datatype.String |]
  in
  let tab = Catalog.create_table cat ~name:"t" ~schema () in
  let am = Catalog.create_index cat ~name:"t_k" ~table:"t" ~kind:"btree" ~columns:[ "k" ] in
  let rids = List.init 100 (fun k -> Table_store.insert tab (row [ i (k mod 10); s "x" ])) in
  Alcotest.(check int) "entries" 100 (am.Access_method.am_entry_count ());
  (* search by key *)
  let hits = List.of_seq (am.Access_method.am_search (Access_method.Key_eq [| i 3 |])) in
  Alcotest.(check int) "key 3 hits" 10 (List.length hits);
  (* delete maintains the index *)
  List.iteri (fun k rid -> if k mod 10 = 3 then ignore (Table_store.delete tab rid)) rids;
  Alcotest.(check int) "after delete" 0
    (List.length (List.of_seq (am.Access_method.am_search (Access_method.Key_eq [| i 3 |]))));
  (* update maintains the index *)
  let rid0 = List.nth rids 0 in
  ignore (Table_store.update tab rid0 (row [ i 777; s "y" ]));
  Alcotest.(check int) "moved key" 1
    (List.length (List.of_seq (am.Access_method.am_search (Access_method.Key_eq [| i 777 |]))));
  (* backfill on attach *)
  let am2 = Catalog.create_index cat ~name:"t_k2" ~table:"t" ~kind:"btree" ~columns:[ "k" ] in
  Alcotest.(check int) "backfilled" (Table_store.tuple_count tab)
    (am2.Access_method.am_entry_count ())

let test_catalog_errors () =
  let cat = Catalog.create () in
  let schema = [| Schema.column "a" Datatype.Int |] in
  ignore (Catalog.create_table cat ~name:"t" ~schema ());
  Alcotest.check_raises "duplicate table" (Catalog.Catalog_error "table or view t already exists")
    (fun () -> ignore (Catalog.create_table cat ~name:"t" ~schema ()));
  Alcotest.check_raises "unknown sm" (Catalog.Catalog_error "unknown storage manager nope")
    (fun () -> ignore (Catalog.create_table cat ~name:"u" ~storage:"nope" ~schema ()));
  Alcotest.check_raises "unknown col" (Catalog.Catalog_error "no column zz in t")
    (fun () -> ignore (Catalog.create_index cat ~name:"x" ~table:"t" ~kind:"btree" ~columns:[ "zz" ]))

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let test_stats () =
  let schema = [| Schema.column "a" Datatype.Int; Schema.column "b" Datatype.String |] in
  let rows =
    List.init 100 (fun k -> row [ i (k mod 10); (if k mod 4 = 0 then nul else s "x") ])
  in
  let st = Stats.analyze ~schema ~pages:3 (List.to_seq rows) in
  Alcotest.(check int) "cardinality" 100 st.Stats.ts_cardinality;
  Alcotest.(check int) "distinct a" 10 st.Stats.ts_columns.(0).Stats.cs_distinct;
  Alcotest.(check int) "nulls b" 25 st.Stats.ts_columns.(1).Stats.cs_nulls;
  Alcotest.(check (option value_testable)) "min" (Some (i 0)) st.Stats.ts_columns.(0).Stats.cs_min;
  Alcotest.(check (option value_testable)) "max" (Some (i 9)) st.Stats.ts_columns.(0).Stats.cs_max;
  let sel = Stats.eq_selectivity st 0 in
  Alcotest.(check bool) "eq sel" true (Float.abs (sel -. 0.1) < 0.001);
  let lt5 = Stats.range_selectivity st 0 ~op:`Lt (i 5) in
  Alcotest.(check bool) "range sel" true (lt5 > 0.3 && lt5 < 0.7)

(* ------------------------------------------------------------------ *)
(* Write-ahead log and crash recovery                                  *)
(* ------------------------------------------------------------------ *)

let insert r = { Wal.c_table = "t"; c_before = None; c_after = Some r }

let test_wal_basics () =
  let w = Wal.create () in
  let l1 = Wal.append w (Wal.Commit [ insert (row [ i 1 ]) ]) in
  let l2 = Wal.append w (Wal.Commit []) in
  Alcotest.(check bool) "LSNs monotonic" true (0 < l1 && l1 < l2);
  let st = Wal.stats w in
  Alcotest.(check int) "pending tail" 2 st.Wal.s_pending;
  Alcotest.(check int) "nothing stable yet" 0 st.Wal.s_stable;
  Wal.flush w;
  let st = Wal.stats w in
  Alcotest.(check int) "tail drained" 0 st.Wal.s_pending;
  Alcotest.(check int) "stable" 2 st.Wal.s_stable;
  let records, truncated = Wal.stable_records w in
  Alcotest.(check int) "readable" 2 (List.length records);
  Alcotest.(check int) "no torn records" 0 truncated;
  Alcotest.(check (list int)) "committed" [ l1; l2 ] (Wal.commits w);
  (* volatile tail vanishes at a crash; the stable prefix survives *)
  ignore (Wal.append w (Wal.Commit [ insert (row [ i 2 ]) ]));
  Wal.crash w;
  Alcotest.(check bool) "needs recovery" true (Wal.needs_recovery w);
  Alcotest.(check (list int)) "tail lost" [ l1; l2 ] (Wal.commits w)

let test_wal_torn_record () =
  let w = Wal.create () in
  let faults = Sb_resil.Faults.create ~seed:1 () in
  Sb_resil.Faults.fail_nth faults ~outcome:Sb_resil.Faults.Crash
    ~site:"wal.flush" [ 2 ];
  Wal.set_faults w faults;
  let l1 = Wal.append w (Wal.Commit [ insert (row [ i 1 ]) ]) in
  Wal.flush w;
  ignore (Wal.append w (Wal.Commit [ insert (row [ i 2 ]) ]));
  (match Wal.flush w with
  | () -> Alcotest.fail "expected a crash at wal.flush"
  | exception Sb_resil.Faults.Crashed site ->
    Alcotest.(check string) "site" "wal.flush" site);
  Wal.crash w;
  (* the torn write left the second Commit with a corrupt CRC: the
     readable prefix stops before it, so it never committed *)
  let records, truncated = Wal.stable_records w in
  Alcotest.(check int) "torn" 1 truncated;
  Alcotest.(check int) "prefix readable" 1 (List.length records);
  Alcotest.(check (list int)) "only the first" [ l1 ] (Wal.commits w)

let test_wal_checkpoint_compaction () =
  let w = Wal.create () in
  for k = 1 to 5 do
    ignore (Wal.append w (Wal.Commit [ insert (row [ i k ]) ]));
    Wal.flush w
  done;
  Alcotest.(check int) "before" 5 (Wal.stats w).Wal.s_stable;
  Wal.checkpoint w ~tables:[ ("t", [ row [ i 1 ] ]) ];
  Alcotest.(check int) "compacted to the checkpoint" 1
    (Wal.stats w).Wal.s_stable;
  ignore (Wal.append w (Wal.Commit []));
  Wal.flush w;
  Alcotest.(check int) "tail grows past it" 2 (Wal.stats w).Wal.s_stable

(* every record shape survives save_file/load_file: a Commit with an
   insert, an update and a delete, a DDL record and a checkpoint *)
let test_wal_save_load () =
  let w = Wal.create () in
  let r1 = row [ i 7; s "x"; nul ] and r2 = row [ i 8; s ""; f 2.5 ] in
  ignore (Wal.append w (Wal.Ddl "CREATE TABLE t (a INT, b STRING, c FLOAT)"));
  ignore
    (Wal.append w
       (Wal.Commit
          [
            insert r1;
            { Wal.c_table = "t"; c_before = Some r1; c_after = Some r2 };
            { Wal.c_table = "t"; c_before = Some r2; c_after = None };
          ]));
  Wal.flush w;
  Wal.checkpoint w ~tables:[ ("t", [ r1; r2 ]); ("u", []) ];
  ignore (Wal.append w (Wal.Commit [ insert r2 ]));
  Wal.flush w;
  let path = Filename.temp_file "sbwal" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Wal.save_file w path;
      let w2 = Wal.create () in
      Alcotest.(check int) "records read" 2 (Wal.load_file w2 path);
      Alcotest.(check bool) "recovery flagged" true (Wal.needs_recovery w2);
      let a, _ = Wal.stable_records w and b, _ = Wal.stable_records w2 in
      Alcotest.(check bool) "round-trip" true (a = b);
      Alcotest.(check int) "the next LSN carries over" (Wal.stats w).Wal.s_lsn
        (Wal.stats w2).Wal.s_lsn)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let with_temp f =
  let path = Filename.temp_file "sbwal" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let is_storage (e : Sb_resil.Err.t) = e.Sb_resil.Err.err_stage = Sb_resil.Err.Storage

(* A file that is not an SBWAL3 log (an SBWAL1 or SBWAL2 log, garbage)
   or a path that is a directory is refused with a structured error:
   by [load_file], which leaves the log as it was, and by the server,
   which exits 1 before it could save over the path. *)
let test_wal_foreign_header () =
  let server =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/starburst_server.exe"
  in
  let refused what path ~mentions =
    let w = Wal.create () in
    (match Wal.load_file w path with
    | _ -> Alcotest.failf "%s: expected a refusal" what
    | exception Sb_resil.Err.Error e ->
      Alcotest.(check bool) (what ^ ": storage error") true (is_storage e));
    Alcotest.(check bool) (what ^ ": log untouched") false (Wal.needs_recovery w);
    with_temp @@ fun err ->
    let code =
      Sys.command
        (Filename.quote_command "timeout"
           [ "20"; server; "-p"; "0"; "--once"; "--wal-file"; path ]
           ~stdout:Filename.null ~stderr:err)
    in
    Alcotest.(check int) (what ^ ": server exit code") 1 code;
    List.iter
      (fun sub ->
        Alcotest.(check bool) (what ^ ": error mentions " ^ sub) true (contains ~sub (read_file err)))
      ("storage:" :: mentions)
  in
  List.iter
    (fun (what, text) ->
      with_temp @@ fun path ->
      write_file path text;
      refused what path ~mentions:[ "SBWAL3" ];
      Alcotest.(check string) (what ^ ": bytes unchanged") text (read_file path))
    [
      ("SBWAL1 log", "SBWAL1 4 2\n1 2768625435 84950000000000000000\n");
      ("SBWAL2 log", "SBWAL2 3 2\n1 1874150585 0201000000000000000000000000000000\n");
      ("garbage", "\000\255 not a log\n");
    ];
  let dir = Filename.temp_dir "sbwal" ".dir" in
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) @@ fun () ->
  refused "directory" dir ~mentions:[ dir ];
  Alcotest.(check bool) "directory: still an empty directory" true
    (Sys.is_directory dir && Sys.readdir dir = [||])

let hex_of str = String.concat "" (List.init (String.length str) (fun k -> Printf.sprintf "%02x" (Char.code str.[k])))

(* Each line of a saved log in turn gets a payload that is no record,
   under a recomputed CRC: recovery reads the log up to that line and
   no further.  Truncated and bit-flipped copies of every real record
   either decode or end the log the same way; recovery then succeeds
   or fails with a structured Storage error, never anything else. *)
let test_wal_corrupt_record () =
  Alcotest.(check int) "CRC-32 check value" 0xCBF43926 (Wal.crc32 "123456789");
  let db = Starburst.create () in
  List.iter
    (fun t -> ignore (Starburst.run db t))
    [
      "CREATE TABLE t (a INT UNIQUE, b STRING)";
      "INSERT INTO t VALUES (1, 'x'), (2, 'y')";
      "SET wal_checkpoint = 3";
      "UPDATE t SET b = 'z' WHERE a = 1";
      "DELETE FROM t WHERE a = 2";
      "INSERT INTO t VALUES (3, 'w')";
      "CREATE INDEX t_b ON t (b)";
    ];
  with_temp @@ fun path ->
  Wal.save_file db.Starburst.Corona.catalog.Catalog.wal path;
  let header, lines =
    match String.split_on_char '\n' (String.trim (read_file path)) with
    | header :: lines -> (header, Array.of_list lines)
    | [] -> Alcotest.fail "empty log file"
  in
  let n = Array.length lines in
  let payload k =
    match String.split_on_char ' ' lines.(k) with
    | [ _; _; hex ] -> String.init (String.length hex / 2) (fun j -> Char.chr (int_of_string ("0x" ^ String.sub hex (2 * j) 2)))
    | _ -> Alcotest.failf "line %d is not 'lsn crc hex'" k
  in
  let recover_with k bytes =
    let lsn = List.hd (String.split_on_char ' ' lines.(k)) in
    let lines = Array.copy lines in
    lines.(k) <- Printf.sprintf "%s %d %s" lsn (Wal.crc32 bytes) (hex_of bytes);
    write_file path (String.concat "\n" (header :: Array.to_list lines) ^ "\n");
    let db = Starburst.create () in
    Alcotest.(check int) "every line read" n (Wal.load_file db.Starburst.Corona.catalog.Catalog.wal path);
    match Starburst.Corona.recover db with
    | st -> Ok st
    | exception (Starburst.Error e | Sb_resil.Err.Error e) ->
      if is_storage e then Error e
      else Alcotest.failf "line %d: not a Storage error: %s" k (Sb_resil.Err.to_string e)
  in
  let enc l = Row_codec.encode (row l) in
  let not_records =
    [
      ("unknown tag", enc [ i 9; i 1 ]);
      ("commit change with one field", enc [ i 0; s "t" ]);
      ("commit image past the record", enc [ i 0; s "t"; nul; i 5; i 1 ]);
      ("commit image of negative width", enc [ i 0; s "t"; nul; i (-1) ]);
      ("ddl with two texts", enc [ i 1; s "x"; s "y" ]);
      ("checkpoint short of its ddl", enc [ i 2; i 1000 ]);
      ("checkpoint rows past the record", enc [ i 2; i 0; s "t"; i 2; i 1; i 1 ]);
      ("field count past the record", "\255\255\255\255\255\255\255\255\127");
      ("no bytes", "");
    ]
  in
  for k = 0 to n - 1 do
    List.iter
      (fun (what, bytes) ->
        match recover_with k bytes with
        | Ok st ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "line %d, %s: read, truncated" k what)
            (k, n - k)
            (st.Recovery.r_records, st.Recovery.r_truncated)
        | Error e -> Alcotest.failf "line %d, %s: %s" k what (Sb_resil.Err.to_string e))
      not_records;
    let p = payload k in
    ignore (recover_with k (String.sub p 0 (String.length p - 1)));
    String.iteri
      (fun j c ->
        let flipped = Bytes.of_string p in
        Bytes.set flipped j (Char.chr (Char.code c lxor 0x80));
        ignore (recover_with k (Bytes.to_string flipped)))
      p
  done

(* Rollback is not logged, and it can leave a row at a new rid: the
   failing UPDATE grows row 1 off its full page before the collision
   on a = 3, and the rollback puts it back elsewhere.  Recovery replays
   the committed statements only, so row 1 is rebuilt where the INSERT
   put it, and the later UPDATE that names row 1 must still find it:
   this is why redo goes by value, not by rid. *)
let test_recovery_after_moving_rollback () =
  let db = Starburst.create () in
  let run t = ignore (Starburst.run db t) in
  run "CREATE TABLE t (a INT UNIQUE, b STRING)";
  let pad = String.make 50 'x' in
  run
    ("INSERT INTO t VALUES "
    ^ String.concat ", " (List.init 60 (fun k -> Printf.sprintf "(%d, '%s')" (k + 1) pad)));
  let tab = Option.get (Catalog.find_table db.Starburst.Corona.catalog "t") in
  let rid () = Table_store.find_rid tab (row [ i 1; s pad ]) in
  let placed = rid () in
  (match
     Starburst.run db
       (Printf.sprintf
          "UPDATE t SET b = '%s', a = CASE WHEN a = 2 THEN 3 ELSE a END WHERE a <= 2"
          (String.make 2000 'y'))
   with
  | _ -> Alcotest.fail "expected a unique violation"
  | exception Starburst.Error _ -> ());
  Alcotest.(check bool) "rollback moved row 1" true (rid () <> placed);
  run "UPDATE t SET b = 'q' WHERE a = 1";
  let rows = q db "SELECT a, b FROM t" in
  Recovery.crash ~catalog:db.Starburst.Corona.catalog;
  ignore (Starburst.Corona.recover db);
  check_bag "recovered rows" rows (q db "SELECT a, b FROM t")

(* a crash during one DML statement, at each injection site in turn.
   The first three statements committed before the crash, so recovery
   must rebuild them; the in-flight DELETE survives only when its
   Commit record reached the stable log before the crash fired
   (the post-commit site: checkpoint). *)
let crash_matrix = [ ("wal.append", 3); ("wal.flush", 3); ("checkpoint", 2) ]

let test_crash_matrix () =
  List.iter
    (fun (site, rows_after) ->
      let db = Starburst.create () in
      let run t = ignore (Starburst.run db t) in
      run "CREATE TABLE acct (k INT UNIQUE, v INT)";
      run "SET wal_checkpoint = 1";
      run "INSERT INTO acct VALUES (1, 10), (2, 20)";
      run "UPDATE acct SET v = 11 WHERE k = 1";
      run "INSERT INTO acct VALUES (3, 30)";
      let epoch_before = db.Starburst.Corona.catalog.Catalog.epoch in
      let faults = Sb_resil.Faults.create ~seed:1 () in
      Sb_resil.Faults.fail_nth faults ~outcome:Sb_resil.Faults.Crash ~site [ 1 ];
      Starburst.Corona.set_faults db faults;
      (match Starburst.run db "DELETE FROM acct WHERE k = 2" with
      | _ -> Alcotest.failf "%s: expected a simulated crash" site
      | exception Starburst.Error e ->
        Alcotest.(check bool)
          (site ^ ": crash is a Storage error")
          true
          (e.Sb_resil.Err.err_stage = Sb_resil.Err.Storage));
      (* the processor refuses statements until recovery runs *)
      (match Starburst.run db "SELECT count(*) FROM acct" with
      | _ -> Alcotest.failf "%s: statements must be gated" site
      | exception Starburst.Error _ -> ());
      Starburst.Corona.set_faults db Sb_resil.Faults.none;
      ignore (Starburst.Corona.recover db);
      let rows = q db "SELECT k, v FROM acct ORDER BY k" in
      Alcotest.(check int) (site ^ ": row count") rows_after (List.length rows);
      (* committed effects are always visible after recovery *)
      Alcotest.(check bool)
        (site ^ ": committed update survives")
        true
        (List.exists (fun r -> r = row [ i 1; i 11 ]) rows);
      Alcotest.(check bool)
        (site ^ ": committed insert survives")
        true
        (List.exists (fun r -> r = row [ i 3; i 30 ]) rows);
      (* the epoch moved and new statements run normally *)
      Alcotest.(check bool)
        (site ^ ": epoch bumped")
        true
        (db.Starburst.Corona.catalog.Catalog.epoch > epoch_before);
      run "INSERT INTO acct VALUES (9, 90)";
      Alcotest.(check int)
        (site ^ ": db usable after recovery")
        (rows_after + 1)
        (List.length (q db "SELECT k FROM acct")))
    crash_matrix

let test_statement_atomicity () =
  let db = Starburst.create () in
  (* the log that rollback rides on has no off switch *)
  (match Starburst.run db "SET wal = off" with
  | _ -> Alcotest.fail "SET wal must be an unknown option"
  | exception Starburst.Error e ->
    Alcotest.(check string) "unknown option" "unknown option wal" e.Sb_resil.Err.err_msg);
  ignore (Starburst.run db "CREATE TABLE t (a INT UNIQUE, b STRING)");
  let wal = db.Starburst.Corona.catalog.Catalog.wal in
  let appends = (Wal.stats wal).Wal.s_appends in
  ignore (Starburst.run db "INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  (* a committed statement is one record *)
  Alcotest.(check int) "one append" (appends + 1) (Wal.stats wal).Wal.s_appends;
  let appends = appends + 1 and stable = Wal.stable_records wal in
  (* the third row violates UNIQUE: the whole statement must roll back *)
  (match Starburst.run db "INSERT INTO t VALUES (3, 'z'), (4, 'w'), (1, 'dup')" with
  | _ -> Alcotest.fail "expected a unique violation"
  | exception Starburst.Error _ -> ());
  check_bag "no partial insert"
    [ row [ i 1; s "x" ]; row [ i 2; s "y" ] ]
    (q db "SELECT a, b FROM t");
  (* it never reached the log: only the registry counts the abort *)
  Alcotest.(check int) "no append" appends (Wal.stats wal).Wal.s_appends;
  Alcotest.(check bool) "stable region unchanged" true (stable = Wal.stable_records wal);
  Alcotest.(check int) "one abort" 1
    (Sb_obs.Metrics.counter_value
       (Sb_obs.Metrics.counter (Starburst.metrics db) "sb_wal_aborts_total"));
  (* same for a multi-row UPDATE that collides mid-way *)
  (match Starburst.run db "UPDATE t SET a = 5 WHERE a >= 1" with
  | _ -> Alcotest.fail "expected a unique violation"
  | exception Starburst.Error _ -> ());
  check_bag "update rolled back"
    [ row [ i 1 ]; row [ i 2 ] ]
    (q db "SELECT a FROM t")

(* A failing UPDATE of every row of a 4,000-row UNIQUE-indexed table
   (its last row collides) rolls back each change at the rid it left
   the row at.  The table and an index probe read as before, and the
   rollback scans nothing: the failing UPDATE costs at most twice the
   buffer pool's logical reads of the same UPDATE when it commits. *)
let test_rollback_by_rid () =
  let n = 4000 in
  let setup () =
    let db = Starburst.create () in
    let run s = ignore (Starburst.run db s) in
    run "CREATE TABLE r (k INT NOT NULL UNIQUE, v STRING)";
    List.iter
      (fun c ->
        run
          ("INSERT INTO r VALUES "
          ^ String.concat ", "
              (List.init 500 (fun j ->
                   let k = (c * 500) + j in
                   Printf.sprintf "(%d, 'v%d')" k k))))
      (List.init (n / 500) Fun.id);
    run "CREATE INDEX r_k ON r (k)";
    db
  in
  let reads db stmt ~fails =
    let st = Buffer_pool.stats db.Starburst.catalog.Catalog.pool in
    let before = st.Buffer_pool.logical_reads in
    (match Starburst.run db stmt with
    | _ -> if fails then Alcotest.fail "expected a unique violation"
    | exception Starburst.Error _ -> if not fails then Alcotest.fail "unexpected error");
    st.Buffer_pool.logical_reads - before
  in
  let probe db k =
    let rows = q db (Printf.sprintf "SELECT v FROM r WHERE k = %d" k) in
    Alcotest.(check bool) "the probe reads the index" true
      ((Starburst.counters db).Sb_qes.Exec.c_index_probes > 0);
    rows
  in
  let db = setup () in
  let table = q db "SELECT k, v FROM r" in
  let failed =
    reads db ~fails:true
      (Printf.sprintf "UPDATE r SET k = CASE WHEN k = %d THEN %d ELSE k + %d END"
         (n - 1) n n)
  in
  check_bag "the table reads as before" table (q db "SELECT k, v FROM r");
  check_rows "an index probe reads as before" [ row [ s "v1234" ] ] (probe db 1234);
  check_rows "no updated key is left" [] (probe db (n + 1234));
  let committed = reads (setup ()) ~fails:false (Printf.sprintf "UPDATE r SET k = k + %d" n) in
  if failed > 2 * committed then
    Alcotest.failf "rollback logical reads: failing %d > 2 x committing %d" failed committed

let test_truncate_maintains_attachments () =
  let cat = Catalog.create () in
  let schema =
    [| Schema.column "k" Datatype.Int; Schema.column "v" Datatype.String |]
  in
  let tab = Catalog.create_table cat ~name:"t" ~schema () in
  let am =
    Catalog.create_index cat ~name:"t_k" ~table:"t" ~kind:"btree"
      ~columns:[ "k" ]
  in
  List.iter
    (fun k -> ignore (Table_store.insert tab (row [ i k; s "x" ])))
    [ 1; 2; 3 ];
  Alcotest.(check int) "filled" 3 (am.Access_method.am_entry_count ());
  Table_store.truncate tab;
  Alcotest.(check int) "no stale index entries" 0
    (am.Access_method.am_entry_count ());
  Alcotest.(check int) "no rows" 0 (Table_store.tuple_count tab)

let qcheck t = QCheck_alcotest.to_alcotest t

let suite =
  ( "storage",
    [
      case "value compare" test_value_compare;
      case "value hash agrees with compare" test_value_hash_fixture;
      case "external datatype registry" test_value_ext_registry;
      case "schema validation" test_schema_validate;
      qcheck prop_codec_roundtrip;
      qcheck prop_fixed_codec;
      case "partial decode" test_partial_decode;
      case "partial decode allocates nothing" test_partial_decode_allocation;
      case "page basic" test_page_basic;
      case "page compact" test_page_compact;
      case "buffer pool eviction" test_buffer_pool_eviction;
      case "buffer pool lru matches the min-stamp rule" test_buffer_pool_lru_model;
      case "heap storage manager" test_heap_manager;
      case "fixed storage manager" test_fixed_manager;
      case "fixed rejects varlen" test_fixed_rejects_varlen;
      case "heap variable-length" test_heap_varlen;
      qcheck prop_btree_model;
      case "btree range" test_btree_range;
      qcheck prop_rtree_model;
      case "rtree delete" test_rtree_delete;
      case "attachment maintenance" test_attachment_maintenance;
      case "catalog errors" test_catalog_errors;
      case "statistics" test_stats;
      case "wal basics" test_wal_basics;
      case "wal torn record" test_wal_torn_record;
      case "wal checkpoint compaction" test_wal_checkpoint_compaction;
      case "wal save/load round-trip" test_wal_save_load;
      case "crash matrix" test_crash_matrix;
      case "statement atomicity" test_statement_atomicity;
      case "truncate maintains attachments" test_truncate_maintains_attachments;
      case "boxed short strings share values" test_string_sharing;
      case "statement rollback by rid" test_rollback_by_rid;
      case "wal refuses a file without an SBWAL3 header" test_wal_foreign_header;
      case "wal record that is no record ends the log" test_wal_corrupt_record;
      case "recovery after a rollback that moved a row" test_recovery_after_moving_rollback;
    ] )
