namespace lidi::kafka {
// Never connect(fd, ...) or ::socket( directly; prose does not count.
const char* kHint = "nor does a string: epoll_wait(";
int Rebind(int port) { return rebind(port); }  // not a call to bind()
Status Listen(net::Transport* transport) {
  return transport->RegisterPayload("kafka-broker-0", "kafka.fetch", nullptr);
}
}  // namespace lidi::kafka
