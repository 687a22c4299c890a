package repro.baselines

import repro.core._

/** Hamerly's algorithm [26]: one upper bound u(i) to the assigned centroid
  * and one lower bound l(i) to the second-closest, plus s(j) = half the
  * distance from c_j to its nearest other centroid. Memory 2n + k.
  */
final class Hamerly extends KMeansAlgo {
  override def name: String = "Hamerly"

  override def extraMemoryFloats(n: Long, k: Long, d: Long): Long = 2 * n + k

  override def run(
      data: Array[Array[Double]],
      k: Int,
      maxIters: Int,
      init: Array[Array[Double]],
  ): KMeansResult = {
    require(maxIters >= 1, "need at least one iteration")
    val n = data.length
    val rec = new RunRecorder
    val counter = new DistanceCounter
    rec.markInitDone()

    var centroids = init.map(_.clone())
    val a = new Array[Int](n)
    val u = new Array[Double](n)
    val l = new Array[Double](n)
    val s = new Array[Double](k)
    val drifts = new Array[Double](k)
    val nn = new KMeans.Nearest
    var it = 0
    var converged = false

    /** Full scan of point i: set a, u (closest) and l (second closest). */
    def fullScan(i: Int): Unit = {
      KMeans.nearest(data(i), centroids, counter, nn)
      a(i) = nn.i1; u(i) = nn.d1; l(i) = nn.d2
    }

    while (it < maxIters && !converged) {
      // s(j): half the distance to the nearest other centroid.
      if (k > 1) {
        var j = 0
        while (j < k) { s(j) = KMeans.nearestOther(j, centroids, counter, nn) / 2; j += 1 }
      }

      var i = 0
      while (i < n) {
        if (it == 0) fullScan(i)
        else {
          val m = math.max(s(a(i)), l(i))
          if (u(i) > m) {
            u(i) = counter.dist(data(i), centroids(a(i))) // tighten
            if (u(i) > m) fullScan(i)
          }
        }
        i += 1
      }

      centroids = KMeans.refine(data, a, centroids, drifts)
      val maxDrift = KMeans.maxDrift(drifts)
      i = 0
      while (i < n) { u(i) += drifts(a(i)); l(i) -= maxDrift; i += 1 }
      it += 1
      converged = maxDrift <= KMeans.Eps
      rec.markIterDone()
    }

    KMeansResult(centroids, a, it, rec.initMs, rec.iterMs, counter.count, 0L,
      extraMemoryFloats(n.toLong, k.toLong, data(0).length.toLong))
  }
}
