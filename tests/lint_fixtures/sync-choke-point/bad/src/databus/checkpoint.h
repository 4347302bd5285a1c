namespace lidi::databus {
inline Status SyncCheckpoint(io::WritableFile& file) {
  // sync-choke-point: the checkpoint is synced once per poll.
  return file.Sync();
}
}  // namespace lidi::databus
