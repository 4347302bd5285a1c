namespace lidi::kafka {
// Never connect(fd, ...) or ::socket( directly; prose does not count.
const char* kHint = "nor does a string: epoll_wait(";
int Rebind(int port) { return rebind(port); }  // not a call to bind()
int OpenListener() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  return fd;
}
}  // namespace lidi::kafka
