namespace lidi::io {
// src/io owns the sync policy: its own Sync() calls need no justification.
Status SyncPolicyFlush(WritableFile* file) { return file->Sync(); }
}  // namespace lidi::io
