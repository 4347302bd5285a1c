namespace lidi::databus {
inline Status SyncCheckpoint(io::WritableFile& file) {
  return file.Sync();  // sync-choke-point: once per poll, the last in the cap.
}
}  // namespace lidi::databus
