package repro.core

import scala.util.Random

/** Result of one k-means run.
  *
  * @param centroids            final k centroids
  * @param assignments          final per-point cluster id
  * @param iterations           assignment phases executed (≤ maxIters)
  * @param initMs               time spent before the first iteration (index
  *                             construction, bound matrices, …)
  * @param iterMs               wall time of each iteration
  * @param distanceComputations full d-dimensional distance evaluations
  * @param batchPrunedVectors   point-iterations assigned without an
  *                             individual centroid search (paper Table VII
  *                             "pruned vectors")
  * @param extraMemoryFloats    bookkeeping memory beyond the dataset, in
  *                             8-byte slots (indexes, bounds, matrices)
  */
final case class KMeansResult(
    centroids: Array[Array[Double]],
    assignments: Array[Int],
    iterations: Int,
    initMs: Double,
    iterMs: Array[Double],
    distanceComputations: Long,
    batchPrunedVectors: Long,
    extraMemoryFloats: Long,
) {
  def totalMs: Double = initMs + iterMs.sum

  /** Sum of squared errors of this clustering over `data`. */
  def sse(data: Array[Array[Double]]): Double = {
    var s = 0.0; var i = 0
    while (i < data.length) { s += Vec.dist2(data(i), centroids(assignments(i))); i += 1 }
    s
  }
}

/** An exact k-means algorithm: must produce Lloyd's fixed point sequence. */
trait KMeansAlgo {
  def name: String

  /** Extra memory (8-byte slots) this algorithm allocates beyond the dataset
    * — drives the device memory gate that produces the paper's N/A cells.
    */
  def extraMemoryFloats(n: Long, k: Long, d: Long): Long

  /** Run from the given initial centroids (shared across algorithms so runs
    * are comparable and exactness is testable).
    */
  def run(data: Array[Array[Double]], k: Int, maxIters: Int, init: Array[Array[Double]]): KMeansResult
}

object KMeans {

  /** Centroid-drift threshold below which a run is declared converged. */
  val Eps: Double = 1e-12

  /** Deterministic initial centroids: a seeded sample of k distinct points
    * (the paper compares exact accelerators, so all algorithms must share
    * the same start).
    */
  def initCentroids(data: Array[Array[Double]], k: Int, seed: Long): Array[Array[Double]] = {
    require(k >= 1 && k <= data.length, s"need 1 <= k <= n, got k=$k n=${data.length}")
    val rnd = new Random(seed)
    val picked = new java.util.HashSet[Int]()
    val out = new Array[Array[Double]](k)
    var j = 0
    while (j < k) {
      val i = rnd.nextInt(data.length)
      if (picked.add(i)) { out(j) = data(i).clone(); j += 1 }
    }
    out
  }

  /** Lloyd's refinement from scratch: sums and counts over `assignments`,
    * then [[fromSums]]. Writes each centroid's drift into `drifts`.
    */
  def refine(
      data: Array[Array[Double]],
      assignments: Array[Int],
      old: Array[Array[Double]],
      drifts: Array[Double],
  ): Array[Array[Double]] = {
    val k = old.length; val d = old(0).length
    val sums = Array.fill(k)(new Array[Double](d))
    val counts = new Array[Long](k)
    var i = 0
    while (i < data.length) {
      val a = assignments(i)
      Vec.addInto(sums(a), data(i)); counts(a) += 1
      i += 1
    }
    fromSums(sums, counts, old, drifts)
  }

  /** The refinement every algorithm shares: each next centroid is the mean
    * of its members, or the old centroid when the cluster is empty. Writes
    * drifts(j) = ‖next(j) − old(j)‖; the result may share arrays with `old`.
    */
  def fromSums(
      sums: Array[Array[Double]],
      counts: Array[Long],
      old: Array[Array[Double]],
      drifts: Array[Double],
  ): Array[Array[Double]] = {
    val k = old.length
    val next = new Array[Array[Double]](k)
    var j = 0
    while (j < k) {
      next(j) = if (counts(j) > 0) Vec.scale(sums(j), 1.0 / counts(j)) else old(j)
      drifts(j) = Vec.dist(next(j), old(j))
      j += 1
    }
    next
  }

  /** Result slot of [[nearest]], reused across calls: the nearest centroid
    * `i1` and the smallest and second-smallest squared distances (+∞ where
    * there are fewer candidates).
    */
  final class Nearest {
    var i1: Int = -1
    var d1Sq: Double = Double.PositiveInfinity
    var d2Sq: Double = Double.PositiveInfinity

    def d1: Double = math.sqrt(d1Sq)
    def d2: Double = math.sqrt(d2Sq)
  }

  /** The nearest-centroid rule of every exact algorithm: a linear scan that
    * compares squared distances, the lowest centroid index winning an exact
    * tie (Lloyd's rule). A caller that already holds candidate `heldId`'s
    * squared distance passes it as `heldSq`; it is ranked at its own index
    * and not recomputed, so the scan counts k − 1 distances instead of k.
    */
  def nearest(
      q: Array[Double],
      centroids: Array[Array[Double]],
      counter: DistanceCounter,
      out: Nearest,
      heldId: Int = -1,
      heldSq: Double = 0.0,
  ): Nearest = {
    var i1 = -1; var d1 = Double.PositiveInfinity; var d2 = Double.PositiveInfinity
    var j = 0
    while (j < centroids.length) {
      val t = if (j == heldId) heldSq else counter.dist2(q, centroids(j))
      if (t < d1) { d2 = d1; d1 = t; i1 = j }
      else if (t < d2) d2 = t
      j += 1
    }
    out.i1 = i1; out.d1Sq = d1; out.d2Sq = d2
    out
  }

  /** Distance from centroid j to its nearest other centroid (+∞ when k = 1):
    * [[nearest]] with j itself held at distance 0.
    */
  def nearestOther(j: Int, centroids: Array[Array[Double]], counter: DistanceCounter, out: Nearest): Double =
    nearest(centroids(j), centroids, counter, out, heldId = j, heldSq = 0.0).d2

  def maxDrift(drifts: Array[Double]): Double = { var m = 0.0; var j = 0; while (j < drifts.length) { if (drifts(j) > m) m = drifts(j); j += 1 }; m }
}

/** Wall-clock recorder shared by all algorithm implementations. */
final class RunRecorder {
  private var t0 = System.nanoTime()
  private val iters = scala.collection.mutable.ArrayBuffer.empty[Double]
  var initMs: Double = 0.0

  def markInitDone(): Unit = { initMs = (System.nanoTime() - t0) / 1e6; t0 = System.nanoTime() }

  def markIterDone(): Unit = { iters += (System.nanoTime() - t0) / 1e6; t0 = System.nanoTime() }

  def iterMs: Array[Double] = iters.toArray
}
