/* poll(2) bindings behind the socket loop (Netloop).
 *
 * The pollfd array lives in a custom block OUTSIDE the OCaml heap
 * (malloc'd, freed by the finalizer), for two reasons: the kernel
 * needs a stable pointer across a blocking call made with the runtime
 * lock released (heap Bytes could be moved by another domain's GC),
 * and keeping the programmed entries C-side is what makes the
 * per-wakeup OCaml work allocation-free — every stub here traffics
 * only in immediate ints.
 *
 * The set has a fixed size. An entry nobody watches is a hole (fd -1):
 * poll(2) skips it and reports revents 0, so the caller can index the
 * set by its own slot numbers and never compact it.
 *
 * Event bits are our own stable encoding, mapped to the platform's
 * POLL* constants here so the OCaml side never sees platform variance:
 *   1 = readable  (POLLIN)
 *   2 = writable  (POLLOUT)
 *   4 = error/hangup/invalid (POLLERR | POLLHUP | POLLNVAL)
 */

#include <poll.h>
#include <stdlib.h>
#include <errno.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/custom.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>

#define RIO_POLL_IN 1
#define RIO_POLL_OUT 2
#define RIO_POLL_ERR 4

typedef struct {
  struct pollfd *fds;
  int cap;
} rio_pollset;

#define Pollset_val(v) ((rio_pollset *) Data_custom_val(v))

static void rio_pollset_finalize(value v)
{
  rio_pollset *s = Pollset_val(v);
  if (s->fds != NULL) {
    free(s->fds);
    s->fds = NULL;
  }
}

static struct custom_operations rio_pollset_ops = {
  "riommu.pollset",
  rio_pollset_finalize,
  custom_compare_default,
  custom_hash_default,
  custom_serialize_default,
  custom_deserialize_default,
  custom_compare_ext_default,
  custom_fixed_length_default
};

static struct pollfd *entry(value vt, value vidx, const char *fn)
{
  rio_pollset *s = Pollset_val(vt);
  int idx = Int_val(vidx);
  if (idx < 0 || idx >= s->cap) caml_invalid_argument(fn);
  return &s->fds[idx];
}

/* Every entry starts as a hole: calloc alone would leave fd 0 (stdin)
   watched in each one. */
CAMLprim value rio_pollset_create(value vcap)
{
  CAMLparam1(vcap);
  CAMLlocal1(res);
  int cap = Int_val(vcap);
  if (cap < 1) cap = 1;
  struct pollfd *fds = calloc((size_t) cap, sizeof(struct pollfd));
  if (fds == NULL) caml_raise_out_of_memory();
  for (int i = 0; i < cap; i++) fds[i].fd = -1;
  res = caml_alloc_custom(&rio_pollset_ops, sizeof(rio_pollset), 0, 1);
  Pollset_val(res)->fds = fds;
  Pollset_val(res)->cap = cap;
  CAMLreturn(res);
}

/* [set t idx fd events]: program one entry. fd is the Unix.file_descr
   (an immediate int on Unix). */
CAMLprim value rio_pollset_set(value vt, value vidx, value vfd, value vevents)
{
  struct pollfd *p = entry(vt, vidx, "rio_pollset_set");
  int ev = Int_val(vevents);
  short events = 0;
  if (ev & RIO_POLL_IN) events |= POLLIN;
  if (ev & RIO_POLL_OUT) events |= POLLOUT;
  p->fd = Int_val(vfd);
  p->events = events;
  p->revents = 0;
  return Val_unit;
}

/* [clear t idx]: turn one entry back into a hole. */
CAMLprim value rio_pollset_clear(value vt, value vidx)
{
  struct pollfd *p = entry(vt, vidx, "rio_pollset_clear");
  p->fd = -1;
  p->events = 0;
  p->revents = 0;
  return Val_unit;
}

CAMLprim value rio_pollset_revents(value vt, value vidx)
{
  short r = entry(vt, vidx, "rio_pollset_revents")->revents;
  int ev = 0;
  if (r & POLLIN) ev |= RIO_POLL_IN;
  if (r & POLLOUT) ev |= RIO_POLL_OUT;
  if (r & (POLLERR | POLLHUP | POLLNVAL)) ev |= RIO_POLL_ERR;
  return Val_int(ev);
}

/* [wait t n timeout_ms]: poll the first n entries. Returns the number
   of ready entries; EINTR reads as 0 (the caller's loop re-arms).
   Releases the runtime lock only for a blocking wait — the
   timeout_ms=0 hot path stays a plain call. */
CAMLprim value rio_pollset_wait(value vt, value vn, value vtimeout)
{
  rio_pollset *s = Pollset_val(vt);
  int n = Int_val(vn);
  int timeout = Int_val(vtimeout);
  if (n < 0 || n > s->cap) caml_invalid_argument("rio_pollset_wait");
  int ret;
  if (timeout == 0) {
    ret = poll(s->fds, (nfds_t) n, 0);
  } else {
    struct pollfd *fds = s->fds; /* stable: outside the OCaml heap */
    caml_release_runtime_system();
    ret = poll(fds, (nfds_t) n, timeout);
    caml_acquire_runtime_system();
  }
  if (ret < 0) {
    if (errno == EINTR || errno == EAGAIN) return Val_int(0);
    uerror("poll", Nothing);
  }
  return Val_int(ret);
}
