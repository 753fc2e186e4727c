package repro.core

/** Top-K similar subtrajectory search over a set of data trajectories
  * (Appendix E): keep a size-K max-heap of per-trajectory optima, inserting
  * the result of one SSS invocation per data trajectory.
  */
object TopK {

  /** A per-trajectory search hit. */
  final case class Hit(trajId: Long, start: Int, end: Int, dist: Double)

  /** A `search` gate for trajectories held as `IndexedSeq[T]`: decides
    * whether one is searched, given the current k-th best distance (`+inf`
    * until k hits are held). Algorithm 3's GBP→KPF cascade is one
    * (`repro.pruning.Pruner.gate`).
    */
  type Gate[T] = (IndexedSeq[T], Double) => Boolean

  private implicit val byDistDesc: Ordering[Hit] = Ordering.by[Hit, Double](_.dist)

  /** Answer order: ascending distance, ties to the lower trajectory id. */
  private val ranked: Ordering[Hit] = Ordering.by((h: Hit) => (h.dist, h.trajId))

  /** The `k` first of `hits` in answer order, e.g. the global top-K of
    * per-partition top-K lists.
    */
  def merge(hits: Array[Hit], k: Int): Array[Hit] = hits.sorted(ranked).take(k)

  /** K best hits (ascending distance), one per data trajectory, using
    * `search` for each trajectory that `gate` lets through (all of them by
    * default). A hit replaces the k-th best only when strictly closer.
    */
  def search[Q, D](q: Q, data: Iterable[(Long, D)], k: Int,
                   search: (Q, D) => SubtrajResult,
                   gate: (D, Double) => Boolean = (_: D, _: Double) => true): Array[Hit] = {
    require(k >= 1, "k must be >= 1")
    val heap = new scala.collection.mutable.PriorityQueue[Hit]() // max-heap by dist
    for ((id, d) <- data) {
      val kth = if (heap.size < k) Double.PositiveInfinity else heap.head.dist
      if (gate(d, kth)) {
        val r = search(q, d)
        if (heap.size < k) heap.enqueue(Hit(id, r.start, r.end, r.dist))
        else if (r.dist < kth) { heap.dequeue(); heap.enqueue(Hit(id, r.start, r.end, r.dist)) }
      }
    }
    heap.toArray.sorted(ranked)
  }

  /** Convenience: top-K with CMA under `fn`. */
  def cma[T](q: IndexedSeq[T], data: Iterable[(Long, IndexedSeq[T])], k: Int,
             fn: DistFn[T]): Array[Hit] =
    search(q, data, k, (a: IndexedSeq[T], b: IndexedSeq[T]) => CMA.search(a, b, fn))
}
