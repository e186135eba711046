@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc, cc, cc ) )
def jacobi_3d(y, x):
    for i in range(N):
        for j in range(N):
            for k in range(N):
                y[i, j, k] = 0.142 * x[i+1, j+1, k+1] + 0.143 * x[i, j+1, k+1] + 0.143 * x[i+2, j+1, k+1] + 0.143 * x[i+1, j, k+1] + 0.143 * x[i+1, j+2, k+1] + 0.143 * x[i+1, j+1, k] + 0.143 * x[i+1, j+1, k+2]
