"""Tour of the multiversion sketch store.

The paper closes with the vision of "multiversion data stream systems".
This example runs a miniature one end to end:

1. synthesize a WorldCup-format binary access log,
2. ingest two attribute streams of it into a SketchStore,
3. answer point / heavy-hitter / top-k / join queries about past windows,
4. save the store to disk, reopen it, and keep querying —
   the raw log could have been deleted after step 2.

Also shows the value-distribution side: window quantiles of the response
sizes, and a sliding-window view replaying past window positions.

Run:  python examples/sketch_store_tour.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import SketchStore, StreamSpec
from repro.core.quantiles import PersistentQuantiles
from repro.core.sliding import SlidingWindowView
from repro.core.persistent_countmin import PersistentCountMin
from repro.streams.logs import attribute_stream, synthesize_worldcup_log
from repro.streams.model import Stream


def main() -> None:
    # --- 1. the log --------------------------------------------------
    records = synthesize_worldcup_log(40_000, seed=9)
    urls = attribute_stream(records, "object_id")
    clients = attribute_stream(records, "client_id")
    m = len(urls)
    print(f"log: {m} requests "
          f"({records[0].timestamp} .. {records[-1].timestamp} epoch s)")

    # --- 2. the store -------------------------------------------------
    store = SketchStore(width=2048, depth=5, join_width=2048, seed=1)
    store.create(StreamSpec(
        name="urls", delta=25, universe=2**24, heavy_hitters=True,
        joinable=True,
    ))
    store.create(StreamSpec(name="clients", delta=25, joinable=True))
    # One batch per stream: bit-identical to m scalar store.update calls.
    for name, stream in (("urls", urls), ("clients", clients)):
        store.update_batch(name, stream.times, stream.items, stream.counts)
    print(f"store persistence: {store.persistence_words()} words "
          f"(raw log: {20 * m // 8} words)")

    # --- 3. historical analytics --------------------------------------
    s, t = m // 4, 3 * m // 4
    print(f"\ntop URLs of the window ({s}, {t}]:")
    for item, estimate in store.top_k("urls", 5, s, t):
        print(f"  url_{item}: ~{estimate:.0f} requests")

    hot = store.top_k("urls", 1, s, t)[0][0]
    print(f"\nurl_{hot} over four quarters of the day:")
    for q in range(4):
        a, b = q * m // 4, (q + 1) * m // 4
        print(f"  quarter {q + 1}: ~{store.point('urls', hot, a, b):.0f}")

    f2 = store.self_join_size("urls", s, t)
    join = store.join_size("urls", "clients", s, t)
    print(f"\nwindow F2(urls) ~ {f2:.2e}; join(urls, clients) ~ {join:.2e}")

    # --- 4. durability -------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        directory = store.save(Path(tmp) / "store")
        reopened = SketchStore.open(directory)
        again = reopened.point("urls", hot, s, t)
        print(f"\nreopened from {directory.name}/: "
              f"point answer identical = {again == store.point('urls', hot, s, t)}")

    # --- 5. value quantiles and sliding windows ------------------------
    sizes = attribute_stream(records, "size")
    quantiles = PersistentQuantiles(universe=2**16, width=2048, depth=4,
                                    delta=40)
    quantiles.ingest(Stream(items=sizes.items.clip(max=2**16 - 1)))
    print("\nresponse-size quantiles, first vs second half of the day:")
    for label, (a, b) in [("first", (0, m // 2)), ("second", (m // 2, m))]:
        p50 = quantiles.quantile(0.5, a, b)
        p95 = quantiles.quantile(0.95, a, b)
        print(f"  {label} half: p50 ~ {p50} bytes, p95 ~ {p95} bytes")

    monitor = PersistentCountMin(width=2048, depth=5, delta=25)
    monitor.ingest(urls)
    window = SlidingWindowView(monitor, window=m // 10)
    print(f"\nsliding 10%-window frequency of url_{hot} at three positions:")
    for at in (m // 3, 2 * m // 3, m):
        print(f"  ending at {at}: ~{window.point(hot, at=at):.0f}")


if __name__ == "__main__":
    main()
