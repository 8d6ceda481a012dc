/**
 * @file
 * Blocking file-descriptor writes and syncs that ride out signals.
 *
 * The serve stack installs handlers without SA_RESTART (drain, SIGCHLD,
 * SIGHUP), so a blocking write() or fsync() can fail with EINTR at any
 * time; these retry it. Other errors go back to the caller, which
 * decides what they mean for it.
 */

#ifndef MEMORIA_SUPPORT_FDIO_HH
#define MEMORIA_SUPPORT_FDIO_HH

#include <string>

namespace memoria {

/** write() all of `data`, retrying EINTR and short writes. Returns 0,
 *  or the errno of the write that failed. */
int writeAll(int fd, const std::string &data);

/** fsync() with EINTR retry; returns fsync's result. */
int fsyncRetry(int fd);

} // namespace memoria

#endif // MEMORIA_SUPPORT_FDIO_HH
