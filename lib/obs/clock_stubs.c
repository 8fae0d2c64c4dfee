/* Monotonic clock for the span tracer: integer nanoseconds from
   clock_gettime(CLOCK_MONOTONIC). The native entry point returns an
   untagged integer and allocates nothing. */

#include <time.h>
#include <caml/mlvalues.h>

intnat hsyn_clock_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value hsyn_clock_ns_byte(value unit)
{
  return Val_long(hsyn_clock_ns(unit));
}
