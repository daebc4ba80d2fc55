(** A stored table: schema + storage-manager instance + attachments.

    All mutations go through here so that attachments (indexes, and in
    principle integrity constraints) are kept consistent with the base
    records — the contract Corona relies on when it picks an access path. *)

type t = {
  name : string;
  schema : Schema.t;
  storage : Storage_manager.instance;
  storage_kind : string;
  mutable attachments : Access_method.instance list;
  mutable stats : Stats.t;
  registry : Datatype.registry;
}

let create ~name ~schema ~storage ~storage_kind ~registry =
  { name; schema; storage; storage_kind; attachments = []; stats = Stats.empty; registry }

exception Constraint_violation of string

let run_checks t tuple ~exclude =
  List.iter
    (fun am ->
      match am.Access_method.am_check tuple ~exclude with
      | Ok () -> ()
      | Error msg -> raise (Constraint_violation (Fmt.str "%s: %s" t.name msg)))
    t.attachments

let insert t (tuple : Tuple.t) =
  (match Schema.validate ~schema:t.schema tuple with
  | Ok () -> ()
  | Error msg -> Sb_resil.Err.fail Sb_resil.Err.Storage "%s: %s" t.name msg);
  run_checks t tuple ~exclude:None;
  let rid = t.storage.Storage_manager.insert tuple in
  List.iter (fun am -> am.Access_method.am_insert tuple rid) t.attachments;
  rid

let delete t rid =
  match t.storage.Storage_manager.fetch rid with
  | None -> false
  | Some tuple ->
    let ok = t.storage.Storage_manager.delete rid in
    if ok then
      List.iter (fun am -> am.Access_method.am_delete tuple rid) t.attachments;
    ok

let update t rid (tuple : Tuple.t) =
  (match Schema.validate ~schema:t.schema tuple with
  | Ok () -> ()
  | Error msg -> Sb_resil.Err.fail Sb_resil.Err.Storage "%s: %s" t.name msg);
  run_checks t tuple ~exclude:(Some rid);
  match t.storage.Storage_manager.fetch rid with
  | None -> None
  | Some old_tuple ->
    if t.storage.Storage_manager.update rid tuple then begin
      List.iter
        (fun am ->
          am.Access_method.am_delete old_tuple rid;
          am.Access_method.am_insert tuple rid)
        t.attachments;
      Some rid
    end
    else begin
      (* record moved: delete + reinsert *)
      ignore (delete t rid);
      Some (insert t tuple)
    end

let fetch t rid = t.storage.Storage_manager.fetch rid
let tuple_count t = t.storage.Storage_manager.tuple_count ()
let page_count t = t.storage.Storage_manager.page_count ()

(* every column of every live record, page by page: each page's rows
   are copied out before its successor is pinned *)
let scan t =
  let width = Array.length t.schema in
  let sink = Row_codec.sink (Array.make width Row_codec.Boxed) in
  let npages = page_count t in
  let rec page_seq i () =
    if i >= npages then Seq.Nil
    else begin
      let rows = ref [] in
      t.storage.Storage_manager.scan_page i sink (fun slot ->
          rows :=
            ({ Storage_manager.rid_page = i; rid_slot = slot }, Array.copy sink.row)
            :: !rows);
      Seq.append (List.to_seq (List.rev !rows)) (page_seq (i + 1)) ()
    end
  in
  page_seq 0

let find_rid t (row : Tuple.t) =
  Seq.find_map
    (fun (rid, r) -> if Tuple.equal ~registry:t.registry r row then Some rid else None)
    (scan t)

let truncate t =
  (* purge attachments of every live entry before dropping the base
     records, else stale index entries would point at reused rids *)
  Seq.iter
    (fun (rid, tuple) ->
      List.iter (fun am -> am.Access_method.am_delete tuple rid) t.attachments)
    (scan t);
  t.storage.Storage_manager.truncate ()

(** Attaches an access method and back-fills it from existing records. *)
let attach t (am : Access_method.instance) =
  if List.exists (fun a -> a.Access_method.am_name = am.Access_method.am_name) t.attachments
  then
    Sb_resil.Err.fail Sb_resil.Err.Storage "attachment %s already exists on %s"
      am.Access_method.am_name t.name;
  Seq.iter (fun (rid, tuple) -> am.Access_method.am_insert tuple rid) (scan t);
  t.attachments <- am :: t.attachments

let detach t name =
  t.attachments <-
    List.filter (fun a -> a.Access_method.am_name <> name) t.attachments

let find_attachment t name =
  List.find_opt (fun a -> a.Access_method.am_name = name) t.attachments

let analyze t =
  t.stats <-
    Stats.analyze ~registry:t.registry ~schema:t.schema ~pages:(page_count t)
      (Seq.map snd (scan t));
  t.stats
