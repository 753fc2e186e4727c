package repro.core

/** Top-K similar subtrajectory search over a set of data trajectories
  * (Appendix E): keep a size-K max-heap of per-trajectory optima, inserting
  * the result of one SSS invocation per data trajectory.
  */
object TopK {

  /** A per-trajectory search hit. */
  final case class Hit(trajId: Long, start: Int, end: Int, dist: Double)

  /** Answer order: ascending distance, ties to the lower trajectory id. */
  private val ranked: Ordering[Hit] = Ordering.by((h: Hit) => (h.dist, h.trajId))

  /** The `k` first of `hits` in answer order, e.g. the global top-K of
    * per-partition top-K lists.
    */
  def merge(hits: Array[Hit], k: Int): Array[Hit] = hits.sorted(ranked).take(k)

  /** K best hits (ascending distance), one per data trajectory, using
    * `search` for every trajectory: the k first in answer order, whatever
    * order the data arrives in.
    */
  def search[Q, D](q: Q, data: Iterable[(Long, D)], k: Int,
                   search: (Q, D) => SubtrajResult): Array[Hit] =
    searchBelow(q, data, k, (a: Q, b: D, _: Double) => Some(search(a, b)))

  /** The one incumbent loop, with one hook: [[search]] with a search that
    * sees a threshold and may answer `None` for any reason (a bound that
    * reaches it, [[bestFirst]], or a DP stopped early,
    * `CMA.searchBelow`); that trajectory never enters the heap. The
    * threshold and the replace rule are [[Incumbents]]'. The hits are the k
    * first in answer order, in any data order, where each `None` proves the
    * trajectory's optimum no closer than the threshold it was handed.
    */
  def searchBelow[Q, D](q: Q, data: Iterable[(Long, D)], k: Int,
                        search: (Q, D, Double) => Option[SubtrajResult]): Array[Hit] = {
    val top = new Incumbents(k)
    for ((id, d) <- data) top.offer(id, search(q, d, top.threshold(id)))
    top.hits
  }

  /** Best-first top-K (Seidl & Kriegel's multi-step k-NN, Appendix E): every
    * trajectory is keyed by `bound` before the first search (`None` drops
    * it), so a bound that throws does so before any search. A queue pops
    * the trajectories in ascending `(key, trajId)` order (ties to the lower
    * id, keys under `Ordering.Double.TotalOrdering`), and one whose key is
    * `>=` the threshold [[Incumbents]] hands it is cut. With `refine`, a
    * popped key below the threshold is a first stage: the trajectory goes
    * back with its `refine`d key, taken at most once, and only a refined
    * entry is searched. Where each key is `<=` its refined key, the
    * searches and their thresholds are those of a scan in `(refined key,
    * trajId)` order (DESIGN.md §3), and the hits are the full search's
    * where the searched key is `<=` the trajectory's optimum.
    */
  def bestFirst[Q, D](q: Q, data: Iterable[(Long, D)], k: Int, bound: D => Option[Double],
                      search: (Q, D, Double) => Option[SubtrajResult],
                      refine: Option[D => Double] = None): Array[Hit] = {
    val top = new Incumbents(k)
    val queue = scala.collection.mutable.PriorityQueue.empty[Keyed[D]](byKey[D].reverse)
    for ((id, d) <- data; b <- bound(d)) queue.enqueue(Keyed(b, id, d, refined = refine.isEmpty))
    while (queue.nonEmpty) {
      val e = queue.dequeue()
      val threshold = top.threshold(e.id)
      if (e.key >= threshold) ()
      else if (!e.refined) refine.foreach(f => queue.enqueue(Keyed(f(e.d), e.id, e.d, refined = true)))
      else top.offer(e.id, search(q, e.d, threshold))
    }
    top.hits
  }

  /** A queued trajectory of [[bestFirst]]: its key, id and data, and whether the key is refined. */
  private final case class Keyed[D](key: Double, id: Long, d: D, refined: Boolean)

  /** `(key, id)` order, keys under `Ordering.Double.TotalOrdering`, compared without a tuple per call. */
  private def byKey[D]: Ordering[Keyed[D]] = (a, b) => {
    val c = java.lang.Double.compare(a.key, b.key)
    if (c != 0) c else java.lang.Long.compare(a.id, b.id)
  }

  /** The k best hits so far, in a max-heap whose head is the k-th. The
    * threshold a trajectory is handed is `+inf` until k hits are held, then
    * the k-th best distance, or its `Math.nextUp` for a trajectory whose id
    * is below the k-th hit's, which would take its place at an equal
    * distance. A hit replaces the k-th when it is smaller in answer order.
    */
  private final class Incumbents(k: Int) {
    require(k >= 1, "k must be >= 1")
    private val heap = new scala.collection.mutable.PriorityQueue[Hit]()(ranked)

    def threshold(id: Long): Double =
      if (heap.size < k) Double.PositiveInfinity
      else if (id < heap.head.trajId) Math.nextUp(heap.head.dist) else heap.head.dist

    def offer(id: Long, r: Option[SubtrajResult]): Unit =
      r.map(r => Hit(id, r.start, r.end, r.dist)).foreach { h =>
        if (heap.size < k) heap.enqueue(h)
        else if (ranked.lt(h, heap.head)) { heap.dequeue(); heap.enqueue(h) }
      }

    def hits: Array[Hit] = heap.toArray.sorted(ranked)
  }

  /** Top-K with the full CMA under `fn`: the unpruned reference. */
  def cma[T](q: IndexedSeq[T], data: Iterable[(Long, IndexedSeq[T])], k: Int,
             fn: DistFn[T]): Array[Hit] =
    search(q, data, k, (a: IndexedSeq[T], b: IndexedSeq[T]) => CMA.search(a, b, fn))
}
