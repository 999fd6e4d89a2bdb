"""PL101 bad fixture: resources leak on at least one CFG path."""

from multiprocessing.shared_memory import SharedMemory


def leak_on_except_return(data):
    view = memoryview(data)
    try:
        n = int(view[0])
    except IndexError:
        return None  # leak: the except path never releases view
    view.release()
    return n


def leak_on_early_return(name, fast):
    shm = SharedMemory(name=name)
    if fast:
        return 0  # leak: early return skips close/unlink
    shm.close()
    shm.unlink()
    return 1


def leak_on_raise_between(data):
    view = memoryview(data)
    if len(view) < 8:
        raise ValueError("short buffer")  # leak: raises past the release
    total = int(view[0])
    view.release()
    return total


def leak_on_rebind(first, second):
    view = memoryview(first)
    view = memoryview(second)  # leak: first view dropped unreleased
    result = bytes(view[:4])  # a raise here skips the release
    view.release()
    return result


def leak_on_loop_continue(names):
    total = 0
    for name in names:
        shm = SharedMemory(name=name)
        if shm.size == 0:
            continue  # leak: empty segments are never closed
        total += shm.size
        shm.close()
    return total


def leak_on_exception(payload):
    shm = SharedMemory(create=True, size=len(payload))
    shm.buf[: len(payload)] = payload  # a raise here leaks the segment
    shm.close()
    shm.unlink()


def leak_attached_segment(name):
    shm = SharedMemory(name=name)
    return bytes(shm.buf[:16])  # a copy escapes; the segment is never closed


def leak_memoryview(shm):
    view = memoryview(shm.buf)
    return view[0]  # view pins the mapping and is never released


def leak_buf_alias(shm):
    buf = shm.buf
    buf[0] = 1  # .buf alias kept without release()


def leak_when_cast_raises(data):
    view = memoryview(data)
    view = view.cast("B")  # raises on a zero-size shape: view leaks
    n = view.nbytes
    view.release()
    return n
