(** The default storage manager: a heap of slotted pages holding
    variable-length records, accessed through the buffer pool. *)

open Storage_manager

let make ~(pool : Buffer_pool.t) ~(schema : Schema.t) : instance =
  ignore schema;
  let file = Buffer_pool.create_file pool in
  let tuples = ref 0 in
  (* page with most-recent free room, to avoid rescanning all pages *)
  let last_free = ref (-1) in
  let alloc_for record_len =
    let fits page_no =
      Buffer_pool.with_page pool file page_no (fun p -> Page.has_room p record_len)
    in
    if !last_free >= 0 && fits !last_free then !last_free
    else begin
      let n = Buffer_pool.page_count pool file in
      let rec hunt i =
        if i >= n then Buffer_pool.alloc_page pool file
        else if fits i then i
        else hunt (i + 1)
      in
      let page_no = hunt (max 0 (n - 1)) in
      last_free := page_no;
      page_no
    end
  in
  let insert tuple =
    let record = Row_codec.encode tuple in
    if String.length record > Page.default_size - 64 then
      Sb_resil.Err.fail Sb_resil.Err.Storage
        "heap: record of %d bytes exceeds page capacity (%d)"
        (String.length record)
        (Page.default_size - 64);
    let page_no = alloc_for (String.length record) in
    let slot =
      Buffer_pool.with_page pool file page_no (fun p -> Page.insert p record)
    in
    incr tuples;
    { rid_page = page_no; rid_slot = slot }
  in
  let fetch rid =
    if rid.rid_page < 0 || rid.rid_page >= Buffer_pool.page_count pool file then None
    else
      Buffer_pool.with_page pool file rid.rid_page (fun p ->
          Option.map Row_codec.decode (Page.get p rid.rid_slot))
  in
  let delete rid =
    if rid.rid_page < 0 || rid.rid_page >= Buffer_pool.page_count pool file then false
    else
      Buffer_pool.with_page pool file rid.rid_page (fun p ->
          match Page.get p rid.rid_slot with
          | None -> false
          | Some _ ->
            Page.delete p rid.rid_slot;
            decr tuples;
            true)
  in
  let update rid tuple =
    let record = Row_codec.encode tuple in
    if rid.rid_page < 0 || rid.rid_page >= Buffer_pool.page_count pool file then false
    else
      Buffer_pool.with_page pool file rid.rid_page (fun p ->
          if Page.update p rid.rid_slot record then true
          else
            match Page.get p rid.rid_slot with
            | None -> false
            | Some _ ->
              (* won't fit in place: compact the page and retry, else fail
                 back to the caller who will delete + reinsert *)
              Page.compact p;
              Page.update p rid.rid_slot record)
  in
  (* decodes straight from the pinned page's bytes *)
  let scan_page page_no sink k =
    Sb_resil.Faults.guard (Buffer_pool.faults pool) ~site:"heap.page" (fun () ->
        Buffer_pool.with_page pool file page_no (fun p ->
            Page.iter_in_place p (fun slot data off len ->
                Row_codec.decode_into sink data ~off ~len;
                k slot)))
  in
  let truncate () =
    let npages = Buffer_pool.page_count pool file in
    for i = 0 to npages - 1 do
      Buffer_pool.with_page pool file i (fun p ->
          Page.iter_in_place p (fun slot _ _ _ -> Page.delete p slot);
          Page.compact p)
    done;
    tuples := 0;
    last_free := -1
  in
  {
    sm_kind = "heap";
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
  { factory_name = "heap"; supports = (fun _ -> true); create = make }
