#ifndef RIO_OBS_DEFERRED_H
#define RIO_OBS_DEFERRED_H

namespace rio::obs {

// No-op left for perfbench/hostbench.cc, which calls it; remove both together.
inline void flushAllDeferred() {}

} // namespace rio::obs

#endif // RIO_OBS_DEFERRED_H
