"""True positives for the boundary-serialization rule's direct pool sinks."""

from concurrent.futures import ProcessPoolExecutor

SHARED_STATE = {"warm": 0}


def sweep(chunks):
    def local_worker(chunk):
        return len(chunk)

    with ProcessPoolExecutor(max_workers=2) as pool:
        lam = pool.submit(lambda: 1)
        closure = pool.submit(local_worker, chunks[0])
        handle = pool.submit(print, open("results.txt"))
        shared = pool.submit(print, SHARED_STATE)
    return lam, closure, handle, shared


def bad_initializer(context):
    pool = ProcessPoolExecutor(initializer=print, initargs=(lambda: context,))
    return pool
