package perfbench

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{DaskMeans, KMeans}

import scala.util.Random

class TracedDaskMeansSpec extends AnyFunSuite {

  /** Gaussian blobs in d dimensions: continuous, so no distance ties. */
  private def blobs(n: Int, d: Int, centers: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new Random(seed)
    val cs = Array.fill(centers)(Array.fill(d)(rnd.nextDouble() * 100))
    Array.fill(n) { val c = cs(rnd.nextInt(centers)); Array.tabulate(d)(i => c(i) + rnd.nextGaussian() * 2) }
  }

  for ((d, k) <- Seq((2, 25), (3, 60), (16, 12))) {
    test(s"traced loop is DaskMeans.run bit for bit (d=$d, k=$k)") {
      val data = blobs(3_000, d, 40, seed = d.toLong)
      val init = KMeans.initCentroids(data, k, seed = 5L)
      val expected = new DaskMeans(leafCapacity = 12).run(data, k, 8, init)
      val o = TracedDaskMeans.run(data, k, 8, init, leafCapacity = () => 12, runId = "t")
      assert(TracedDaskMeans.sameRun(o, expected))

      val tr = o.tracer
      Seq("run", "leaf_capacity", "point_index.build").foreach(p => assert(tr.named(p).size == 1, p))
      Seq("iteration", "centroid_index.build", "inter_bounds", "assign", "refine")
        .foreach(p => assert(tr.named(p).size == o.iterations, p))
      // Every distance is counted inside a phase span, none outside.
      assert(TracedDaskMeans.Phases.map(tr.dist).sum == o.distances)
      assert(tr.selfSeconds("run") >= 0 && tr.selfSeconds("iteration") >= 0)
      assert(tr.all.forall(s => s.runId == "t" && s.endNs >= s.startNs))
    }
  }

  test("the self-check fails when the traced run differs") {
    val data = blobs(2_000, 3, 20, seed = 9L)
    val expected = new DaskMeans(leafCapacity = 12).run(data, 10, 8, KMeans.initCentroids(data, 10, seed = 1L))
    val other = TracedDaskMeans.run(data, 10, 8, KMeans.initCentroids(data, 10, seed = 2L), leafCapacity = () => 12, runId = "t")
    assert(!TracedDaskMeans.sameRun(other, expected))
  }
}
