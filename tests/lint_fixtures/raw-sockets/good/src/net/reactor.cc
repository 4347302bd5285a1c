namespace lidi::net {
// src/net is the transport: raw sockets and epoll live here.
int Wait(int epfd, epoll_event* events) {
  return ::epoll_wait(epfd, events, 64, -1);
}
}  // namespace lidi::net
