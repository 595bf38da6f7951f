"""Clean negatives for the boundary-serialization rule's direct pool sinks."""

from concurrent.futures import ProcessPoolExecutor

FROZEN_CONFIG = ("alpha", "beta")


def evaluate_chunk(chunk):
    return len(chunk)


def initialize_worker(context):
    return context


def sweep(chunks, context):
    with ProcessPoolExecutor(
        max_workers=2, initializer=initialize_worker, initargs=(context,)
    ) as pool:
        futures = [pool.submit(evaluate_chunk, chunk) for chunk in chunks]
    return futures


def local_callbacks(chunks):
    # Lambdas are fine when they never cross the pool boundary.
    keyed = sorted(chunks, key=lambda chunk: len(chunk))
    return [FROZEN_CONFIG, keyed]
