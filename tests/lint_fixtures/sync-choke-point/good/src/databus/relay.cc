namespace lidi::databus {
// A file->Sync() named in a comment is not a site.
void Seal(io::WritableFile* a, io::WritableFile* b, io::WritableFile* c) {
  // sync-choke-point: sealed segments, once per roll.
  (void)a->Sync();
  // sync-choke-point: the justification may sit three lines up.


  (void)b->Sync();
  // sync-choke-point: same roll as above.
  (void)c->Sync();
  (void)a->Sync();  // sync-choke-point: manifest rewrite.
  // sync-choke-point: last one in the cap.
  (void)b->Sync();
}
}  // namespace lidi::databus
