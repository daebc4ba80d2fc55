(** A storage manager for fixed-length records only — "but extremely
    efficiently" (the paper's example of a Core storage-manager extension).

    Records of a schema-determined width are packed densely into pages
    with no per-record slot directory: the record's position inside the
    page follows from its slot number, and a one-byte liveness mark
    precedes each record.  Fetch is O(1) arithmetic. *)

open Storage_manager

let make ~(pool : Buffer_pool.t) ~(schema : Schema.t) : instance =
  let width =
    match Row_codec.fixed_width schema with
    | Some w -> w
    | None ->
      Sb_resil.Err.fail Sb_resil.Err.Storage
        "fixed: schema has variable-length columns"
  in
  let layout = Row_codec.fixed_layout schema in
  let cell = width + 1 (* liveness byte *) in
  let per_page = (Page.default_size - 64) / cell in
  if per_page < 1 then
    Sb_resil.Err.fail Sb_resil.Err.Storage "fixed: record wider than a page";
  let file = Buffer_pool.create_file pool in
  let tuples = ref 0 in
  (* Within each Page.t we store exactly one record (the whole cell
     array) at slot 0, and manage cell liveness ourselves. *)
  let blank = String.make (per_page * cell) '\000' in
  let ensure_page page_no =
    while Buffer_pool.page_count pool file <= page_no do
      let p = Buffer_pool.alloc_page pool file in
      Buffer_pool.with_page pool file p (fun page ->
          ignore (Page.insert page blank))
    done
  in
  let next_free = ref 0 (* global cell cursor; freed cells are reused *) in
  let free_list = ref [] in
  let read_cell page cell_no =
    Buffer_pool.with_page pool file page (fun p ->
        let off = cell_no * cell in
        match Page.read_sub p 0 ~pos:off ~len:cell with
        | Some bytes when bytes.[0] = '\001' ->
          Some (Row_codec.decode_fixed ~schema (String.sub bytes 1 width))
        | Some _ | None -> None)
  in
  let cell_live page cell_no =
    Buffer_pool.with_page pool file page (fun p ->
        Page.read_sub p 0 ~pos:(cell_no * cell) ~len:1 = Some "\001")
  in
  let write_cell page cell_no ~live record =
    Buffer_pool.with_page pool file page (fun p ->
        let off = cell_no * cell in
        let payload =
          if live then "\001" ^ record else String.make cell '\000'
        in
        Page.write_sub p 0 ~pos:off payload)
  in
  let insert tuple =
    let record = Row_codec.encode_fixed ~schema tuple in
    let idx =
      match !free_list with
      | i :: rest ->
        free_list := rest;
        i
      | [] ->
        let i = !next_free in
        next_free := i + 1;
        i
    in
    let page = idx / per_page and cell_no = idx mod per_page in
    ensure_page page;
    ignore (write_cell page cell_no ~live:true record);
    incr tuples;
    { rid_page = page; rid_slot = cell_no }
  in
  let valid rid =
    rid.rid_page >= 0 && rid.rid_slot >= 0 && rid.rid_slot < per_page
    && rid.rid_page < Buffer_pool.page_count pool file
  in
  let fetch rid = if valid rid then read_cell rid.rid_page rid.rid_slot else None in
  let delete rid =
    if valid rid && cell_live rid.rid_page rid.rid_slot then begin
      ignore (write_cell rid.rid_page rid.rid_slot ~live:false "");
      free_list := ((rid.rid_page * per_page) + rid.rid_slot) :: !free_list;
      decr tuples;
      true
    end
    else false
  in
  let update rid tuple =
    if valid rid && cell_live rid.rid_page rid.rid_slot then
      write_cell rid.rid_page rid.rid_slot ~live:true
        (Row_codec.encode_fixed ~schema tuple)
    else false
  in
  (* one pin per page, amortized over all its cells; cells at or past
     the cursor were never written since the last truncate *)
  let scan_page page sink k =
    let base = page * per_page and total = !next_free in
    if base < total then
      Buffer_pool.with_page pool file page (fun p ->
          Page.iter_in_place p (fun _ data off _ ->
              for cell_no = 0 to min per_page (total - base) - 1 do
                let at = off + (cell_no * cell) in
                if Bytes.get data at = '\001' then begin
                  Row_codec.decode_fixed_into layout sink data (at + 1);
                  k cell_no
                end
              done))
  in
  let truncate () =
    next_free := 0;
    free_list := [];
    tuples := 0;
    for i = 0 to Buffer_pool.page_count pool file - 1 do
      Buffer_pool.with_page pool file i (fun p -> ignore (Page.update p 0 blank))
    done
  in
  {
    sm_kind = "fixed";
    insert;
    delete;
    update;
    fetch;
    scan_page;
    tuple_count = (fun () -> !tuples);
    page_count = (fun () -> Buffer_pool.page_count pool file);
    truncate;
  }

let factory : factory =
  {
    factory_name = "fixed";
    supports = (fun schema -> Row_codec.fixed_width schema <> None);
    create = make;
  }
