namespace lidi::databus {
// A file->Sync() named in a comment is not a site.
void Seal(io::WritableFile* a) {
  // sync-choke-point: the justification may sit three lines up.


  (void)a->Sync();
}
}  // namespace lidi::databus
