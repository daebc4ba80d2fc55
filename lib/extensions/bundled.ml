let install db =
  Outer_join.install db;
  Spatial.install db;
  Sampling.install db;
  Majority.install db;
  Stats_fns.install db
