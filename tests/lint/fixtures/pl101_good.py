"""PL101 good fixture: every path provably releases or transfers."""

from multiprocessing.shared_memory import SharedMemory


def release_in_finally(data):
    view = memoryview(data)
    try:
        return int(view[0])
    except IndexError:
        return None
    finally:
        view.release()  # runs on every path, exception edge included


def managed_by_with(name):
    with SharedMemory(name=name) as shm:
        return bytes(shm.buf[:8])


def ownership_transfer(registry, name):
    shm = SharedMemory(name=name)
    registry.append(shm)  # the registry owns it now
    return shm.size


def returned_to_caller(data):
    view = memoryview(data)
    return view  # caller owns it


def derivation_keeps_obligation(data):
    view = memoryview(data)
    try:
        view = view.cast("B")  # same resource, narrowed -- not a leak
        return view.nbytes
    finally:
        view.release()


def released_on_both_branches(data, wide):
    view = memoryview(data)
    if wide:  # no call between acquire and release: nothing can raise
        n = view.nbytes
        view.release()
    else:
        n = 0
        view.release()
    return n


def nested_try_with_reraise(data):
    view = memoryview(data)
    try:
        try:
            return int(view[0])
        except IndexError:
            raise ValueError("empty buffer") from None
    finally:
        view.release()


def close_in_finally(payload):
    shm = SharedMemory(create=True, size=len(payload))
    try:
        shm.buf[: len(payload)] = payload
        return shm.name
    finally:
        shm.close()
        shm.unlink()


def transfer_to_registry(pool, length):
    shm = SharedMemory(create=True, size=length)
    pool.append(shm)  # ownership transferred to the pool
    return shm


class SegmentOwner:
    def adopt(self, length):
        shm = SharedMemory(create=True, size=length)
        self.segment = shm  # ownership transferred to the instance
        return self.segment


def suppressed_leak(name):
    shm = SharedMemory(name=name)  # primacy-lint: disable=PL101 -- closed by caller
    return shm.buf
