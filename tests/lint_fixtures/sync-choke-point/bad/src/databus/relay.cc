namespace lidi::databus {
// A file->Sync() named in a comment is not a site.
void Seal(io::WritableFile* a, io::WritableFile* b) {
  // sync-choke-point: sealed segments, once per roll.
  (void)a->Sync();
  // sync-choke-point: one past the cap.
  (void)b->Sync();
  // sync-choke-point: four lines up is out of the window.



  (void)a->Sync();
}
}  // namespace lidi::databus
