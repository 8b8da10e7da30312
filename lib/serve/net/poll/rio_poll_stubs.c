/* poll(2) bindings behind the socket loop's Readiness module.
 *
 * The pollfd array lives in a custom block OUTSIDE the OCaml heap
 * (malloc'd, freed by the finalizer), for two reasons: the kernel
 * needs a stable pointer across a blocking call made with the runtime
 * lock released (heap Bytes could be moved by another domain's GC),
 * and keeping registration state C-side is what makes the per-wakeup
 * OCaml work allocation-free — every stub here traffics only in
 * immediate ints.
 *
 * Event bits are our own stable encoding, mapped to the platform's
 * POLL* constants here so the OCaml side never sees platform variance:
 *   1 = readable  (POLLIN)
 *   2 = writable  (POLLOUT)
 *   4 = error/hangup/invalid (POLLERR | POLLHUP | POLLNVAL)
 */

#include <poll.h>
#include <stdlib.h>
#include <string.h>
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

CAMLprim value rio_pollset_create(value vcap)
{
  CAMLparam1(vcap);
  CAMLlocal1(res);
  int cap = Int_val(vcap);
  if (cap < 1) cap = 1;
  struct pollfd *fds = calloc((size_t) cap, sizeof(struct pollfd));
  if (fds == NULL) caml_raise_out_of_memory();
  res = caml_alloc_custom(&rio_pollset_ops, sizeof(rio_pollset), 0, 1);
  Pollset_val(res)->fds = fds;
  Pollset_val(res)->cap = cap;
  CAMLreturn(res);
}

CAMLprim value rio_pollset_capacity(value vt)
{
  return Val_int(Pollset_val(vt)->cap);
}

/* Grow to at least [vcap] slots, preserving contents. */
CAMLprim value rio_pollset_grow(value vt, value vcap)
{
  rio_pollset *s = Pollset_val(vt);
  int want = Int_val(vcap);
  if (want > s->cap) {
    int cap = s->cap;
    while (cap < want) cap *= 2;
    struct pollfd *fds = calloc((size_t) cap, sizeof(struct pollfd));
    if (fds == NULL) caml_raise_out_of_memory();
    memcpy(fds, s->fds, (size_t) s->cap * sizeof(struct pollfd));
    free(s->fds);
    s->fds = fds;
    s->cap = cap;
  }
  return Val_unit;
}

/* [set t idx fd events]: program one slot. fd is the Unix.file_descr
   (an immediate int on Unix). */
CAMLprim value rio_pollset_set(value vt, value vidx, value vfd, value vevents)
{
  rio_pollset *s = Pollset_val(vt);
  int idx = Int_val(vidx);
  if (idx < 0 || idx >= s->cap) caml_invalid_argument("rio_pollset_set");
  int ev = Int_val(vevents);
  short events = 0;
  if (ev & RIO_POLL_IN) events |= POLLIN;
  if (ev & RIO_POLL_OUT) events |= POLLOUT;
  s->fds[idx].fd = Int_val(vfd);
  s->fds[idx].events = events;
  s->fds[idx].revents = 0;
  return Val_unit;
}

CAMLprim value rio_pollset_fd(value vt, value vidx)
{
  rio_pollset *s = Pollset_val(vt);
  int idx = Int_val(vidx);
  if (idx < 0 || idx >= s->cap) caml_invalid_argument("rio_pollset_fd");
  return Val_int(s->fds[idx].fd);
}

CAMLprim value rio_pollset_revents(value vt, value vidx)
{
  rio_pollset *s = Pollset_val(vt);
  int idx = Int_val(vidx);
  if (idx < 0 || idx >= s->cap) caml_invalid_argument("rio_pollset_revents");
  short r = s->fds[idx].revents;
  int ev = 0;
  if (r & POLLIN) ev |= RIO_POLL_IN;
  if (r & POLLOUT) ev |= RIO_POLL_OUT;
  if (r & (POLLERR | POLLHUP | POLLNVAL)) ev |= RIO_POLL_ERR;
  return Val_int(ev);
}

/* [wait t n timeout_ms]: poll the first n slots. Returns the number
   of ready slots; EINTR reads as 0 (the caller's loop re-arms).
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
